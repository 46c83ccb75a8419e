package core

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/memory"
	"repro/internal/prefetch"
)

// This file gives the front-end and the shared memory system a deep
// snapshot/restore capability — the machine-state half of fork-and-
// diverge batched sweeps. A snapshot is pristine: restoring copies FROM
// it, so the same snapshot can seed any number of machines.
//
// Each copyInto below is a state's copy method (DESIGN.md §3.1): it
// returns s with every slice moved onto dst's backing array (reused
// when large enough), and a line index held by value copied into dst's.

func (t lineIndex) copyInto(dst lineIndex) lineIndex {
	t.slots = append(dst.slots[:0], t.slots...)
	return t
}

func (s queueState) copyInto(dst queueState) queueState {
	s.entries = append(dst.entries[:0], s.entries...)
	s.next = append(dst.next[:0], s.next...)
	s.prev = append(dst.prev[:0], s.prev...)
	s.idx = s.idx.copyInto(dst.idx)
	return s
}

func (s recentState) copyInto(dst recentState) recentState {
	s.ring = append(dst.ring[:0], s.ring...)
	s.counts = s.counts.copyInto(dst.counts)
	return s
}

func (s frontEndState) copyInto(dst frontEndState) frontEndState {
	s.compBase = append(dst.compBase[:0], s.compBase...)
	return s
}

func (q *PrefetchQueue) snapshot() *queueState {
	s := q.queueState.copyInto(queueState{})
	return &s
}

func (q *PrefetchQueue) restore(s *queueState) error {
	if s == nil || len(s.entries) != len(q.entries) || len(s.idx.slots) != len(q.idx.slots) {
		return fmt.Errorf("core: prefetch queue restore sizing mismatch")
	}
	q.queueState = s.copyInto(q.queueState)
	return nil
}

func (r *RecentList) snapshot() *recentState {
	s := r.recentState.copyInto(recentState{})
	return &s
}

func (r *RecentList) restore(s *recentState) error {
	if s == nil || len(s.ring) != len(r.ring) || len(s.counts.slots) != len(r.counts.slots) {
		return fmt.Errorf("core: recent list restore sizing mismatch")
	}
	r.recentState = s.copyInto(r.recentState)
	return nil
}

// MemSnapshot is a deep copy of the shared memory system's dynamic
// state: the L2 contents, the off-chip port schedule, the in-flight
// tracker, and the memory system's own counters.
type MemSnapshot struct {
	memState
	l2       *cache.Snapshot
	port     *memory.PortSnapshot
	inflight *memory.InFlightSnapshot
}

// Snapshot captures the memory system's current state.
func (m *MemSystem) Snapshot() *MemSnapshot {
	return &MemSnapshot{
		memState: m.memState,
		l2:       m.l2.Snapshot(),
		port:     m.port.Snapshot(),
		inflight: m.inflight.Snapshot(),
	}
}

// Restore overwrites the memory system's state with a copy of the
// snapshot's. The L2 geometry must match (each part checks its own;
// every failure is reported); the insert policy may differ (policy is
// behaviour, not state).
func (m *MemSystem) Restore(s *MemSnapshot) error {
	if s == nil {
		return fmt.Errorf("core: restore memory system from nil snapshot")
	}
	m.memState = s.memState
	return errors.Join(m.l2.Restore(s.l2), m.port.Restore(s.port), m.inflight.Restore(s.inflight))
}

// FrontEndSnapshot is a deep copy of one front-end's dynamic state. The
// prefetch scheme's state is stored alongside the scheme's reporting
// name: on restore it is applied only when the target runs the same
// scheme — otherwise the target's scheme is Reset, which is what a
// fork-and-diverge measurement wants (the paper's methodology warms the
// machine, not the scheme under test, when the scheme differs from the
// warm-up configuration).
type FrontEndSnapshot struct {
	frontEndState
	l1       *cache.Snapshot
	queue    *queueState
	recent   *recentState
	inflight *memory.InFlightSnapshot

	scheme      string
	schemeState any
}

// snapshotter returns the prefetch scheme's snapshot capability (all
// registry-built schemes have one).
func (f *FrontEnd) snapshotter() (prefetch.Snapshotter, error) {
	snap, ok := f.pf.(prefetch.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("core: prefetch scheme %s does not support snapshots", f.pf.Name())
	}
	return snap, nil
}

// Snapshot captures the front-end's current state. It fails when the
// prefetch scheme cannot be snapshotted.
func (f *FrontEnd) Snapshot() (*FrontEndSnapshot, error) {
	snap, err := f.snapshotter()
	if err != nil {
		return nil, err
	}
	return &FrontEndSnapshot{
		frontEndState: f.frontEndState.copyInto(frontEndState{}),
		l1:            f.l1.Snapshot(),
		queue:         f.queue.snapshot(),
		recent:        f.recent.snapshot(),
		inflight:      f.inflight.Snapshot(),
		scheme:        f.pf.Name(),
		schemeState:   snap.SnapshotState(),
	}, nil
}

// Restore overwrites the front-end's state with a copy of the
// snapshot's. The L1 geometry and queue/filter capacities must match
// (each part checks its own; every failure is reported). The issue
// policies (insertion depth, TLB fill, wrong path, FIFO) may differ —
// they are behaviour, not state.
func (f *FrontEnd) Restore(s *FrontEndSnapshot) error {
	if s == nil {
		return fmt.Errorf("core: restore front-end from nil snapshot")
	}
	if s.scheme != f.pf.Name() {
		// Divergent scheme: the measurement machine starts it cold.
		f.pf.Reset()
	} else if snap, err := f.snapshotter(); err != nil {
		return err
	} else if err := snap.RestoreState(s.schemeState); err != nil {
		return err
	}
	f.frontEndState = s.frontEndState.copyInto(f.frontEndState)
	return errors.Join(f.l1.Restore(s.l1), f.queue.restore(s.queue), f.recent.restore(s.recent),
		f.inflight.Restore(s.inflight))
}
