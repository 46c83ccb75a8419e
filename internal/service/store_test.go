package service

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// storedFixture is a record with every reference field populated, so a
// copy that shares memory with the cache shows up when mutated.
func storedFixture(key string, cores int) StoredResult {
	comps := func(core int) []stats.ComponentPrefetchStats {
		return []stats.ComponentPrefetchStats{
			{Name: "discontinuity", Issued: uint64(10 + core), Useful: 7},
			{Name: "mana", Issued: 5, Useful: uint64(core)},
		}
	}
	res := sim.Result{
		Spec:             sim.RunSpec{Workload: sim.Workload{Name: "DB", Apps: []string{"DB"}}, Cores: cores, Scheme: "hybrid:discontinuity+mana"},
		Total:            stats.CoreStats{Instructions: 1000, Cycles: 2000, Components: comps(-1)},
		OffChipTransfers: 42,
	}
	for i := 0; i < cores; i++ {
		res.PerCore = append(res.PerCore, stats.CoreStats{Instructions: uint64(100 + i), Cycles: 300, Components: comps(i)})
	}
	return StoredResult{
		Key:       key,
		Spec:      JobSpec{Apps: []string{"DB"}, Cores: cores, Scheme: "hybrid:discontinuity+mana", L1I: &sweep.Geometry{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64}},
		Result:    res,
		CreatedAt: time.Unix(1_700_000_000, 0).UTC(),
		ElapsedMS: 12,
	}
}

func newCacheTestStore(t *testing.T) *Store {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustGet(t *testing.T, st *Store, key string) StoredResult {
	t.Helper()
	e, ok := st.Get(key)
	if !ok {
		t.Fatalf("Get(%q) missed", key)
	}
	return e
}

// TestStoreHitCache covers the in-memory LRU in front of the on-disk
// store: fill on read only, private copies, write-through, the byte
// budget, and corrupt files never cached.
func TestStoreHitCache(t *testing.T) {
	t.Run("SecondGetServedFromMemory", func(t *testing.T) {
		st := newCacheTestStore(t)
		want := storedFixture("k", 2)
		if err := st.Put(want); err != nil {
			t.Fatal(err)
		}
		mustGet(t, st, "k")
		if err := os.Remove(st.path("k")); err != nil {
			t.Fatal(err)
		}
		if got := mustGet(t, st, "k"); !reflect.DeepEqual(got, want) {
			t.Fatalf("cached entry = %+v, want %+v", got, want)
		}
		if c := st.CacheStats(); c.Hits != 1 || c.Misses != 1 || c.Entries != 1 || c.Bytes <= 0 {
			t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", c)
		}
	})

	t.Run("ReturnedEntriesArePrivate", func(t *testing.T) {
		st := newCacheTestStore(t)
		want := storedFixture("k", 2)
		if err := st.Put(want); err != nil {
			t.Fatal(err)
		}
		mutate := func(e StoredResult) {
			e.Spec.Apps[0] = "Web"
			e.Spec.L1I.Assoc = 1
			e.Result.Spec.Workload.Apps[0] = "Web"
			e.Result.Total.Components[0].Issued = 999
			e.Result.PerCore[0].Instructions = 999
			e.Result.PerCore[1].Components[1].Name = "mutated"
		}
		mutate(mustGet(t, st, "k")) // filled from disk
		got := mustGet(t, st, "k")  // served from memory
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("entry after mutating the disk read = %+v, want %+v", got, want)
		}
		mutate(got)
		if got := mustGet(t, st, "k"); !reflect.DeepEqual(got, want) {
			t.Fatalf("entry after mutating a cached read = %+v, want %+v", got, want)
		}
	})

	t.Run("PutRefreshesCachedKey", func(t *testing.T) {
		st := newCacheTestStore(t)
		if err := st.Put(storedFixture("k", 1)); err != nil {
			t.Fatal(err)
		}
		mustGet(t, st, "k")
		want := storedFixture("k", 2)
		want.ElapsedMS = 99
		if err := st.Put(want); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(st.path("k")); err != nil {
			t.Fatal(err)
		}
		if got := mustGet(t, st, "k"); !reflect.DeepEqual(got, want) {
			t.Fatalf("entry after Put = %+v, want the refreshed %+v", got, want)
		}
		if c := st.CacheStats(); c.Entries != 1 {
			t.Fatalf("entries = %d after a refresh, want 1", c.Entries)
		}
	})

	t.Run("PutAloneDoesNotFill", func(t *testing.T) {
		st := newCacheTestStore(t)
		for i := 0; i < 10; i++ {
			if err := st.Put(storedFixture(fmt.Sprint("k", i), 1)); err != nil {
				t.Fatal(err)
			}
		}
		if c := st.CacheStats(); c.Entries != 0 || c.Bytes != 0 {
			t.Fatalf("stats after Puts only = %+v, want an empty cache", c)
		}
		mustGet(t, st, "k3")
		if c := st.CacheStats(); c.Misses != 1 || c.Entries != 1 {
			t.Fatalf("stats after one Get = %+v, want 1 miss, 1 entry", c)
		}
	})

	t.Run("ByteBudgetHolds", func(t *testing.T) {
		st := newCacheTestStore(t)
		const cores = 64 // tens of KB a record, so ~100 records pass the budget
		n := 0
		for total := 0; total <= hitCacheBytes+hitCacheBytes/4; n++ {
			key := fmt.Sprint("k", n)
			if err := st.Put(storedFixture(key, cores)); err != nil {
				t.Fatal(err)
			}
			mustGet(t, st, key)
			if c := st.CacheStats(); c.Bytes > hitCacheBytes {
				t.Fatalf("after %d records the cache holds %d bytes, over the %d budget", n+1, c.Bytes, hitCacheBytes)
			}
			info, err := os.Stat(st.path(key))
			if err != nil {
				t.Fatal(err)
			}
			total += int(info.Size())
		}
		c := st.CacheStats()
		if c.Entries >= n || c.Entries == 0 {
			t.Fatalf("%d entries cached out of %d inserted, want some evicted", c.Entries, n)
		}
		// The oldest record was evicted: reading it goes to disk.
		misses := c.Misses
		mustGet(t, st, "k0")
		if st.CacheStats().Misses != misses+1 {
			t.Fatal("the least recently used record was not evicted")
		}
		// The newest is still cached.
		if err := os.Remove(st.path(fmt.Sprint("k", n-1))); err != nil {
			t.Fatal(err)
		}
		mustGet(t, st, fmt.Sprint("k", n-1))
	})

	t.Run("CorruptFileIsNotCached", func(t *testing.T) {
		st := newCacheTestStore(t)
		if err := os.WriteFile(st.path("k"), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		// A valid record stored under another key's address mismatches.
		if err := st.Put(storedFixture("other", 1)); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(st.path("other"), st.path("m")); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"k", "k", "m", "m"} {
			if _, ok := st.Get(key); ok {
				t.Fatalf("bad file for %q served as a hit", key)
			}
		}
		if c := st.CacheStats(); c.Entries != 0 || c.Misses != 4 || c.Hits != 0 {
			t.Fatalf("stats = %+v, want 4 misses and nothing cached", c)
		}
		want := storedFixture("k", 1)
		if err := st.Put(want); err != nil {
			t.Fatal(err)
		}
		if got := mustGet(t, st, "k"); !reflect.DeepEqual(got, want) {
			t.Fatalf("entry after repair = %+v, want %+v", got, want)
		}
	})

	t.Run("ConcurrentGetPut", func(t *testing.T) {
		st := newCacheTestStore(t)
		for i := 0; i < 4; i++ {
			if err := st.Put(storedFixture(fmt.Sprint("k", i), 2)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					key := fmt.Sprint("k", (g+i)%4)
					if i%5 == 0 {
						if err := st.Put(storedFixture(key, 2)); err != nil {
							t.Error(err)
							return
						}
						continue
					}
					e, ok := st.Get(key)
					if !ok {
						t.Errorf("Get(%q) missed", key)
						return
					}
					e.Result.PerCore[0].Instructions++
				}
			}(g)
		}
		wg.Wait()
		for i := 0; i < 4; i++ {
			if got := mustGet(t, st, fmt.Sprint("k", i)); got.Result.PerCore[0].Instructions != 100 {
				t.Fatalf("k%d PerCore[0].Instructions = %d, want 100", i, got.Result.PerCore[0].Instructions)
			}
		}
	})
}
