package prefetch

import (
	"fmt"
	"maps"
)

// Snapshotter is the snapshot capability of a prefetch scheme: a deep
// copy of all dynamic predictor state (SnapshotState) and the inverse
// operation (RestoreState). The returned state is opaque to callers and
// immutable once taken, so a single snapshot can seed any number of
// equivalently-configured schemes — the property fork-and-diverge
// batched sweeps rely on when replaying one shared warm-up into many
// divergent measurement machines.
//
// Every scheme constructible through the registry implements it (a
// contract test enforces this); stateless schemes return nil and accept
// only nil back. RestoreState targets must be configured identically to
// the snapshot source (same table geometry) — restoring across
// configurations is an error, never a silent truncation.
type Snapshotter interface {
	// SnapshotState returns a deep copy of the scheme's dynamic state,
	// or nil for a stateless scheme.
	SnapshotState() any
	// RestoreState overwrites the scheme's dynamic state with a copy of
	// a state captured from an identically-configured scheme.
	RestoreState(state any) error
}

// stateless implements Snapshotter for schemes without dynamic state.
type stateless struct{}

// SnapshotState and RestoreState implement Snapshotter.
func (stateless) SnapshotState() any { return nil }
func (stateless) RestoreState(state any) error {
	if state != nil {
		return fmt.Errorf("prefetch: stateless scheme restore got %T", state)
	}
	return nil
}

// schemeState is a stateful scheme's embedded state struct. copyInto
// is its copy method (DESIGN.md §3.1): it returns s with every slice
// moved onto dst's backing array (reused when large enough), every map
// cloned, and every table held by value copied into dst's. geometry is
// the table sizing a restore must match.
type schemeState[S any] interface {
	copyInto(dst S) S
	geometry() [3]int
}

// snapshotOf copies a scheme's state into a zero value.
func snapshotOf[S schemeState[S]](live S) any {
	var zero S
	s := live.copyInto(zero)
	return &s
}

// restoreInto checks that state came from an identically-sized scheme
// and copies it into live.
func restoreInto[S schemeState[S]](scheme string, live *S, state any) error {
	s, ok := state.(*S)
	if !ok {
		return fmt.Errorf("prefetch: %s restore from %T", scheme, state)
	}
	if got, want := (*s).geometry(), (*live).geometry(); got != want {
		return fmt.Errorf("prefetch: %s restore sizing mismatch: %v into %v", scheme, got, want)
	}
	*live = (*s).copyInto(*live)
	return nil
}

func (s streamsState) copyInto(dst streamsState) streamsState {
	s.streams = append(dst.streams[:0], s.streams...)
	return s
}

func (s streamsState) geometry() [3]int { return [3]int{len(s.streams)} }

// SnapshotState and RestoreState implement Snapshotter.
func (p *Streams) SnapshotState() any { return snapshotOf(p.streamsState) }
func (p *Streams) RestoreState(state any) error {
	return restoreInto("streams", &p.streamsState, state)
}

func (s targetState) copyInto(dst targetState) targetState {
	s.entries = append(dst.entries[:0], s.entries...)
	return s
}

func (s targetState) geometry() [3]int { return [3]int{len(s.entries)} }

// SnapshotState and RestoreState implement Snapshotter.
func (p *Target) SnapshotState() any           { return snapshotOf(p.targetState) }
func (p *Target) RestoreState(state any) error { return restoreInto("target", &p.targetState, state) }

func (s markovState) copyInto(dst markovState) markovState {
	s.entries = append(dst.entries[:0], s.entries...)
	s.succ = append(dst.succ[:0], s.succ...)
	return s
}

func (s markovState) geometry() [3]int { return [3]int{len(s.entries), len(s.succ)} }

// SnapshotState and RestoreState implement Snapshotter.
func (p *Markov) SnapshotState() any           { return snapshotOf(p.markovState) }
func (p *Markov) RestoreState(state any) error { return restoreInto("markov", &p.markovState, state) }

func (s manaState) copyInto(dst manaState) manaState {
	s.trigTags = append(dst.trigTags[:0], s.trigTags...)
	s.trigRec = append(dst.trigRec[:0], s.trigRec...)
	s.trigValid = append(dst.trigValid[:0], s.trigValid...)
	s.records = append(dst.records[:0], s.records...)
	s.recIndex = maps.Clone(s.recIndex)
	return s
}

func (s manaState) geometry() [3]int { return [3]int{len(s.trigTags), len(s.records)} }

// SnapshotState and RestoreState implement Snapshotter.
func (p *MANA) SnapshotState() any           { return snapshotOf(p.manaState) }
func (p *MANA) RestoreState(state any) error { return restoreInto("mana", &p.manaState, state) }

func (s progMapState) copyInto(dst progMapState) progMapState {
	s.trigs = append(dst.trigs[:0], s.trigs...)
	s.tgts = append(dst.tgts[:0], s.tgts...)
	s.valid = append(dst.valid[:0], s.valid...)
	s.retTags = append(dst.retTags[:0], s.retTags...)
	s.retLines = append(dst.retLines[:0], s.retLines...)
	s.retValid = append(dst.retValid[:0], s.retValid...)
	return s
}

func (s progMapState) geometry() [3]int { return [3]int{len(s.trigs), len(s.retTags)} }

// SnapshotState and RestoreState implement Snapshotter.
func (p *ProgMap) SnapshotState() any { return snapshotOf(p.progMapState) }
func (p *ProgMap) RestoreState(state any) error {
	return restoreInto("progmap", &p.progMapState, state)
}

func (t creditTable) copyInto(dst creditTable) creditTable {
	t.keys = append(dst.keys[:0], t.keys...)
	t.vals = append(dst.vals[:0], t.vals...)
	t.live = append(dst.live[:0], t.live...)
	return t
}

func (s discontinuityState) copyInto(dst discontinuityState) discontinuityState {
	s.triggers = append(dst.triggers[:0], s.triggers...)
	s.targets = append(dst.targets[:0], s.targets...)
	s.ctr = append(dst.ctr[:0], s.ctr...)
	s.conf = append(dst.conf[:0], s.conf...)
	s.valid = append(dst.valid[:0], s.valid...)
	s.pending = s.pending.copyInto(dst.pending)
	s.targetSlots = s.targetSlots.copyInto(dst.targetSlots)
	return s
}

// geometry includes the credit tables, so a restore across confidence
// filter settings (targetSlots empty on one side) is refused.
func (s discontinuityState) geometry() [3]int {
	return [3]int{len(s.triggers), len(s.pending.keys), len(s.targetSlots.keys)}
}

// SnapshotState and RestoreState implement Snapshotter.
func (p *Discontinuity) SnapshotState() any { return snapshotOf(p.discontinuityState) }
func (p *Discontinuity) RestoreState(state any) error {
	return restoreInto("discontinuity", &p.discontinuityState, state)
}
