package service

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/sim"
)

// hitCacheBytes bounds Store's in-memory hit cache, counted in encoded
// record bytes: a 4-core record is about 4.7 KB, so it holds about 900
// of them.
const hitCacheBytes = 4 << 20

// Store is a content-addressed on-disk result cache: one JSON file per
// canonical spec key, named by the SHA-256 of the key. Writes are
// atomic (temp file + rename), so a crashed daemon never leaves a
// half-written entry, and restarts serve completed sweeps from disk.
//
// In front of the files sits a bounded LRU of decoded records, so a
// repeat hit skips the file read and the decode. Only Get fills it,
// from a valid record read off disk: a write-heavy mix never grows it.
// Put writes through to a key that is already cached.
type Store struct {
	dir string

	mu     sync.Mutex
	lru    list.List // of *cachedResult, most recently used first
	byKey  map[string]*list.Element
	bytes  int // sum of cached records' encoded sizes
	puts   uint64
	hits   uint64
	misses uint64
}

// cachedResult is one hit-cache entry. It is never mutated once in the
// list: a refresh replaces it, so readers copy it outside the lock.
type cachedResult struct {
	e    StoredResult
	size int
}

// StoreCacheStats is a point-in-time view of the hit cache.
type StoreCacheStats struct {
	Hits    uint64 // Gets served from memory
	Misses  uint64 // Gets that read the disk
	Entries int
	Bytes   int // encoded size of the cached records
}

// resultStore is the part of Store the job path uses; tests substitute
// an instrumented one.
type resultStore interface {
	Get(key string) (StoredResult, bool)
	Put(e StoredResult) error
	CacheStats() StoreCacheStats
}

// StoredResult is the persisted record of one completed simulation.
type StoredResult struct {
	// Key is the canonical spec key (also the dedup identity); kept in
	// the file so entries are self-describing and hash collisions are
	// detectable.
	Key string `json:"key"`
	// Spec is the wire spec that produced the result.
	Spec JobSpec `json:"spec"`
	// Result is the full simulation result.
	Result sim.Result `json:"result"`
	// CreatedAt records when the simulation finished.
	CreatedAt time.Time `json:"created_at"`
	// ElapsedMS is how long the simulation took, for capacity planning.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// NewStore opens (creating if needed) a result store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: result store: %w", err)
	}
	return &Store{dir: dir, byKey: make(map[string]*list.Element)}, nil
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, contentAddress(key)+".json")
}

// Get loads the entry for key. The second return is false when no
// entry exists; corrupt or mismatching entries are treated as misses.
// The entry shares no memory with the store's cache.
func (s *Store) Get(key string) (StoredResult, bool) {
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		s.hits++
		c := el.Value.(*cachedResult)
		s.mu.Unlock()
		return c.e.clone(), true
	}
	s.misses++
	puts := s.puts
	s.mu.Unlock()

	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return StoredResult{}, false
	}
	var e StoredResult
	if json.Unmarshal(data, &e) != nil || e.Key != key {
		return StoredResult{}, false
	}
	s.mu.Lock()
	// A Put since the read may have replaced the file; caching the
	// older record would then outlive it, so leave the fill to the
	// next miss.
	if s.puts == puts {
		s.insertLocked(e.clone(), len(data))
	}
	s.mu.Unlock()
	return e, true
}

// insertLocked caches e (which the caller no longer references) and
// evicts least recently used entries down to the byte budget. Caller
// must hold s.mu.
func (s *Store) insertLocked(e StoredResult, size int) {
	if size > hitCacheBytes {
		return
	}
	c := &cachedResult{e: e, size: size}
	if el, ok := s.byKey[e.Key]; ok {
		s.bytes += size - el.Value.(*cachedResult).size
		el.Value = c
		s.lru.MoveToFront(el)
	} else {
		s.byKey[e.Key] = s.lru.PushFront(c)
		s.bytes += size
	}
	for s.bytes > hitCacheBytes {
		old := s.lru.Remove(s.lru.Back()).(*cachedResult)
		delete(s.byKey, old.e.Key)
		s.bytes -= old.size
	}
}

// Put persists the entry atomically, refreshing it in the hit cache if
// it is there.
func (s *Store) Put(e StoredResult) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.path(e.Key)); err != nil {
		return err
	}
	s.mu.Lock()
	s.puts++
	if _, ok := s.byKey[e.Key]; ok {
		s.insertLocked(e.clone(), len(data))
	}
	s.mu.Unlock()
	return nil
}

// CacheStats reports the hit cache's counters and occupancy.
func (s *Store) CacheStats() StoreCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreCacheStats{Hits: s.hits, Misses: s.misses, Entries: s.lru.Len(), Bytes: s.bytes}
}

// clone returns a copy of e that shares no slice or pointer with it.
func (e StoredResult) clone() StoredResult {
	e.Spec.Apps = slices.Clone(e.Spec.Apps)
	if e.Spec.L1I != nil {
		g := *e.Spec.L1I
		e.Spec.L1I = &g
	}
	if e.Spec.L2 != nil {
		g := *e.Spec.L2
		e.Spec.L2 = &g
	}
	r := &e.Result
	r.Spec.Workload.Apps = slices.Clone(r.Spec.Workload.Apps)
	r.Total.Components = slices.Clone(r.Total.Components)
	r.PerCore = slices.Clone(r.PerCore)
	for i := range r.PerCore {
		r.PerCore[i].Components = slices.Clone(r.PerCore[i].Components)
	}
	return e
}

// Len counts stored entries (diagnostics and tests).
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}
