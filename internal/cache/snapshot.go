package cache

import "fmt"

// Snapshot is a deep copy of a cache's dynamic state. A snapshot is
// immutable once taken: Restore copies out of it, so one snapshot can
// seed any number of machines.
type Snapshot struct {
	cfg Config
	state
}

// copyInto is the state's copy method (DESIGN.md §3.1): it returns s
// with every slice moved onto dst's backing array, reused when large
// enough.
func (s state) copyInto(dst state) state {
	s.lines = append(dst.lines[:0], s.lines...)
	s.meta = append(dst.meta[:0], s.meta...)
	s.fill = append(dst.fill[:0], s.fill...)
	return s
}

// Snapshot captures the cache's current state.
func (c *Cache) Snapshot() *Snapshot {
	return &Snapshot{cfg: c.cfg, state: c.state.copyInto(state{})}
}

// Restore overwrites the cache's state with a copy of the snapshot's.
// The target must have the same geometry (the snapshot is addressed by
// set and way); the replacement policy may differ — policy is behaviour,
// not state. The snapshot itself is left untouched.
func (c *Cache) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("cache: restore from nil snapshot")
	}
	if s.cfg.SizeBytes != c.cfg.SizeBytes || s.cfg.Assoc != c.cfg.Assoc || s.cfg.LineBytes != c.cfg.LineBytes {
		return fmt.Errorf("cache: restore geometry mismatch: snapshot %+v into %+v", s.cfg, c.cfg)
	}
	c.state = s.state.copyInto(c.state)
	return nil
}
