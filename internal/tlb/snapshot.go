package tlb

import (
	"errors"
	"fmt"
)

// Snapshot is a deep copy of one TLB's dynamic state.
type Snapshot struct {
	assoc int
	state
}

// copyInto is the state's copy method (DESIGN.md §3.1): it returns s
// with every slice moved onto dst's backing array, reused when large
// enough.
func (s state) copyInto(dst state) state {
	s.pages = append(dst.pages[:0], s.pages...)
	s.valid = append(dst.valid[:0], s.valid...)
	return s
}

// Snapshot captures the TLB's current state.
func (t *TLB) Snapshot() *Snapshot {
	return &Snapshot{assoc: t.assoc, state: t.state.copyInto(state{})}
}

// Restore overwrites the TLB's state with a copy of the snapshot's. The
// target must have the same geometry.
func (t *TLB) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("tlb: restore from nil snapshot")
	}
	if len(s.pages) != len(t.pages) || s.assoc != t.assoc {
		return fmt.Errorf("tlb: restore geometry mismatch: %d entries/%d-way into %d entries/%d-way",
			len(s.pages), s.assoc, len(t.pages), t.assoc)
	}
	t.state = s.state.copyInto(t.state)
	return nil
}

// HierarchySnapshot is a deep copy of a two-level translation hierarchy.
type HierarchySnapshot struct {
	itlb, dtlb, l2 *Snapshot
}

// Snapshot captures all three TLBs.
func (h *Hierarchy) Snapshot() *HierarchySnapshot {
	return &HierarchySnapshot{itlb: h.itlb.Snapshot(), dtlb: h.dtlb.Snapshot(), l2: h.l2.Snapshot()}
}

// Restore overwrites all three TLBs from the snapshot. Each checks its
// own geometry first; every failure is reported.
func (h *Hierarchy) Restore(s *HierarchySnapshot) error {
	if s == nil {
		return fmt.Errorf("tlb: restore hierarchy from nil snapshot")
	}
	return errors.Join(h.itlb.Restore(s.itlb), h.dtlb.Restore(s.dtlb), h.l2.Restore(s.l2))
}
