package bpred

import "fmt"

// Snapshot is a deep copy of a predictor's dynamic state (gshare
// counters, global history, BTB targets, RAS contents, statistics).
type Snapshot struct {
	state
}

// copyInto is the state's copy method (DESIGN.md §3.1): it returns s
// with every slice moved onto dst's backing array, reused when large
// enough.
func (s state) copyInto(dst state) state {
	s.counters = append(dst.counters[:0], s.counters...)
	s.btb = append(dst.btb[:0], s.btb...)
	s.ras = append(dst.ras[:0], s.ras...)
	return s
}

// Snapshot captures the predictor's current state.
func (p *Predictor) Snapshot() *Snapshot {
	return &Snapshot{p.state.copyInto(state{})}
}

// Restore overwrites the predictor's state with a copy of the
// snapshot's. The target must have the same table sizes.
func (p *Predictor) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("bpred: restore from nil snapshot")
	}
	if len(s.counters) != len(p.counters) || len(s.btb) != len(p.btb) || len(s.ras) != len(p.ras) {
		return fmt.Errorf("bpred: restore sizing mismatch: %d/%d/%d into %d/%d/%d",
			len(s.counters), len(s.btb), len(s.ras), len(p.counters), len(p.btb), len(p.ras))
	}
	p.state = s.state.copyInto(p.state)
	return nil
}
