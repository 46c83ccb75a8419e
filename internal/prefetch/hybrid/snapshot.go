package hybrid

import (
	"fmt"

	"repro/internal/prefetch"
)

// Each copyInto below is a state's copy method (DESIGN.md §3.1): it
// returns s with every slice moved onto dst's backing array (reused
// when large enough), and an owner table held by value copied into
// dst's.

func (t ownerTable) copyInto(dst ownerTable) ownerTable {
	t.keys = append(dst.keys[:0], t.keys...)
	t.vals = append(dst.vals[:0], t.vals...)
	t.live = append(dst.live[:0], t.live...)
	return t
}

func (s compositeState) copyInto(dst compositeState) compositeState {
	s.pcTags = append(dst.pcTags[:0], s.pcTags...)
	s.pcValid = append(dst.pcValid[:0], s.pcValid...)
	s.credit = append(dst.credit[:0], s.credit...)
	s.stats = append(dst.stats[:0], s.stats...)
	s.ewma = append(dst.ewma[:0], s.ewma...)
	s.attr = s.attr.copyInto(dst.attr)
	s.shadow = s.shadow.copyInto(dst.shadow)
	return s
}

// compositeSnapshot is a Composite's arbitration state plus one opaque
// state per component (recursively captured through
// prefetch.Snapshotter).
type compositeSnapshot struct {
	compositeState
	comps []any
}

// SnapshotState implements prefetch.Snapshotter. Every
// registry-constructible scheme is a Snapshotter and the registry
// rejects nested hybrids, so the recursion ends at the leaf schemes; a
// hand-assembled composite with another component panics here rather
// than silently dropping its state.
func (c *Composite) SnapshotState() any {
	s := &compositeSnapshot{c.compositeState.copyInto(compositeState{}), make([]any, len(c.comps))}
	for i, p := range c.comps {
		s.comps[i] = p.(prefetch.Snapshotter).SnapshotState()
	}
	return s
}

// RestoreState implements prefetch.Snapshotter. The target must be an
// identically-configured composite (same component list, same arbiter
// geometry).
func (c *Composite) RestoreState(state any) error {
	s, ok := state.(*compositeSnapshot)
	if !ok {
		return fmt.Errorf("hybrid: composite restore from %T", state)
	}
	if len(s.pcTags) != len(c.pcTags) || len(s.comps) != len(c.comps) ||
		len(s.attr.keys) != len(c.attr.keys) || len(s.shadow.keys) != len(c.shadow.keys) {
		return fmt.Errorf("hybrid: composite restore sizing mismatch: %d slots/%d comps into %d/%d",
			len(s.pcTags), len(s.comps), len(c.pcTags), len(c.comps))
	}
	c.compositeState = s.compositeState.copyInto(c.compositeState)
	for i, p := range c.comps {
		snap, ok := p.(prefetch.Snapshotter)
		if !ok {
			return fmt.Errorf("hybrid: component %s does not implement prefetch.Snapshotter", c.labels[i])
		}
		if err := snap.RestoreState(s.comps[i]); err != nil {
			return fmt.Errorf("hybrid: component %s: %w", c.labels[i], err)
		}
	}
	return nil
}
