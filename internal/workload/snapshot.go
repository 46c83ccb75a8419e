package workload

import "fmt"

// Snapshotter is the snapshot capability of a workload Source: a deep
// copy of the stream cursor (SnapshotState) and the inverse operation
// (RestoreState). The returned state is opaque to callers and immutable
// once taken, so one snapshot can seed any number of equivalent sources
// — which is what lets fork-and-diverge sweeps replay a shared warm-up
// prefix into many divergent measurement machines. Both Source
// implementations (*Generator and the trace replayer) satisfy it.
type Snapshotter interface {
	// SnapshotState returns a deep copy of the source's cursor.
	SnapshotState() (any, error)
	// RestoreState rewinds the source to a state captured from an
	// equivalent source (same program/trace, same seed lineage).
	RestoreState(state any) error
}

// generatorSnapshot is a Generator's state plus the program it walks.
type generatorSnapshot struct {
	asid uint64
	generatorState
}

// copyInto is the state's copy method (DESIGN.md §3.1): it returns s
// with every slice moved onto dst's backing array, reused when large
// enough.
func (s generatorState) copyInto(dst generatorState) generatorState {
	s.stack = append(dst.stack[:0], s.stack...)
	return s
}

// SnapshotState implements Snapshotter.
func (g *Generator) SnapshotState() (any, error) {
	return &generatorSnapshot{asid: g.prog.ASID, generatorState: g.generatorState.copyInto(generatorState{})}, nil
}

// RestoreState implements Snapshotter. The target must walk the same
// program (the snapshot holds frame indices into the program image).
func (g *Generator) RestoreState(state any) error {
	s, ok := state.(*generatorSnapshot)
	if !ok {
		return fmt.Errorf("workload: generator restore from %T", state)
	}
	if s.asid != g.prog.ASID {
		return fmt.Errorf("workload: generator restore across programs (ASID %d into %d)", s.asid, g.prog.ASID)
	}
	g.generatorState = s.generatorState.copyInto(g.generatorState)
	return nil
}

// replaySnapshot is a trace replayer's cursor plus the container's
// chunk count.
type replaySnapshot struct {
	chunks int
	replayState
}

// SnapshotState implements Snapshotter.
func (r *traceReplay) SnapshotState() (any, error) {
	return &replaySnapshot{chunks: r.tr.NumChunks(), replayState: r.replayState}, nil
}

// RestoreState implements Snapshotter: it re-decodes the snapshot's
// current chunk and restarts the one-chunk-ahead pipeline behind it,
// leaving the replayer exactly where the snapshot was taken.
func (r *traceReplay) RestoreState(state any) error {
	s, ok := state.(*replaySnapshot)
	if !ok {
		return fmt.Errorf("workload: trace replay restore from %T", state)
	}
	if s.chunks != r.tr.NumChunks() || s.curIdx >= s.chunks {
		return fmt.Errorf("workload: trace replay restore across containers (%d chunks into %d)", s.chunks, r.tr.NumChunks())
	}
	// Retire the outstanding decode (a decode error here is irrelevant —
	// that chunk is being discarded), then restart the pipeline at the
	// snapshot's chunk.
	<-r.next
	r.prefetch(s.curIdx)
	if err := r.advance(); err != nil {
		return fmt.Errorf("workload: trace replay restore chunk %d: %w", s.curIdx, err)
	}
	r.replayState = s.replayState
	return nil
}
