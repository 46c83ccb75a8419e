package cpu

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// Snapshot is a deep copy of one core's dynamic state: the timing
// clock, the block-granular fetch cursor, the private caches and
// predictors, the front-end, the statistics record, and the workload
// source's stream cursor. A snapshot is pristine — restoring copies
// FROM it, so the same snapshot can seed any number of cores.
type Snapshot struct {
	state
	cs   stats.CoreStats
	l1d  *cache.Snapshot
	bp   *bpred.Snapshot
	tlbs *tlb.HierarchySnapshot
	fe   *core.FrontEndSnapshot
	src  any
}

// copyInto is the state's copy method (DESIGN.md §3.1): it returns s
// with every slice moved onto dst's backing array, reused when large
// enough.
func (s state) copyInto(dst state) state {
	s.blk.MemOps = append(dst.blk.MemOps[:0], s.blk.MemOps...)
	return s
}

// cloneStats returns cs with its own component rows. They always get a
// fresh array: Finalize hands the slice out in results.
func cloneStats(cs stats.CoreStats) stats.CoreStats {
	cs.Components = slices.Clone(cs.Components)
	return cs
}

// source returns the workload source's snapshot capability.
func (c *Core) source() (workload.Snapshotter, error) {
	src, ok := c.src.(workload.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("cpu: workload source %T does not support snapshots", c.src)
	}
	return src, nil
}

// Snapshot captures the core's current state. It fails when the
// workload source or the prefetch scheme cannot be snapshotted.
func (c *Core) Snapshot() (*Snapshot, error) {
	src, err := c.source()
	if err != nil {
		return nil, err
	}
	s := &Snapshot{state: c.state.copyInto(state{}), cs: cloneStats(*c.cs),
		l1d: c.l1d.Snapshot(), bp: c.bp.Snapshot(), tlbs: c.tlbs.Snapshot()}
	if s.src, err = src.SnapshotState(); err != nil {
		return nil, err
	}
	if s.fe, err = c.fe.Snapshot(); err != nil {
		return nil, err
	}
	return s, nil
}

// Restore overwrites the core's state with a copy of the snapshot's.
// The private cache/predictor geometries must match, and the workload
// source must be equivalent to the snapshot source's (same program or
// trace, same seed lineage). Each part checks its own geometry before
// copying; on error the core is unusable and every failure is reported.
func (c *Core) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("cpu: restore core from nil snapshot")
	}
	src, err := c.source()
	if err != nil {
		return err
	}
	c.state = s.state.copyInto(c.state)
	*c.cs = cloneStats(s.cs)
	return errors.Join(src.RestoreState(s.src), c.l1d.Restore(s.l1d), c.bp.Restore(s.bp),
		c.tlbs.Restore(s.tlbs), c.fe.Restore(s.fe))
}
