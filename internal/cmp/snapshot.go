package cmp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
)

// Snapshot is a deep copy of a whole machine's dynamic state: the
// shared memory system plus every core (private caches, predictors,
// front-end, prefetch scheme, statistics, and workload cursor). A
// snapshot is pristine — Restore copies FROM it — so one warmed-up
// snapshot can seed any number of divergent measurement machines,
// which is the mechanism behind fork-and-diverge batched sweeps.
type Snapshot struct {
	mem   *core.MemSnapshot
	cores []*cpu.Snapshot
}

// Snapshot captures the machine's current state. It fails when any
// core's prefetch scheme or workload source lacks snapshot support
// (all registry-built schemes and both workload sources have it).
func (s *System) Snapshot() (*Snapshot, error) {
	snap := &Snapshot{mem: s.mem.Snapshot(), cores: make([]*cpu.Snapshot, len(s.cores))}
	for i, c := range s.cores {
		var err error
		if snap.cores[i], err = c.Snapshot(); err != nil {
			return nil, fmt.Errorf("cmp: core %d: %w", i, err)
		}
	}
	return snap, nil
}

// Restore overwrites the machine's state with a copy of the snapshot's.
// The target must have the same core count, cache/TLB/predictor
// geometries, and equivalent workload sources; its prefetch scheme and
// issue policies may differ from the snapshot source's (a divergent
// scheme starts the measurement cold, exactly like a fresh machine
// warmed under the snapshot's configuration).
func (s *System) Restore(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("cmp: restore from nil snapshot")
	}
	if len(snap.cores) != len(s.cores) {
		return fmt.Errorf("cmp: restore %d-core snapshot into %d-core machine", len(snap.cores), len(s.cores))
	}
	if err := s.mem.Restore(snap.mem); err != nil {
		return err
	}
	for i, c := range s.cores {
		if err := c.Restore(snap.cores[i]); err != nil {
			return fmt.Errorf("cmp: core %d: %w", i, err)
		}
	}
	return nil
}
