package memory

import "fmt"

// PortSnapshot is a deep copy of a port's dynamic state.
type PortSnapshot struct {
	portState
}

// Snapshot captures the port's current state.
func (p *Port) Snapshot() *PortSnapshot {
	return &PortSnapshot{p.portState}
}

// Restore overwrites the port's state with the snapshot's.
func (p *Port) Restore(s *PortSnapshot) error {
	if s == nil {
		return fmt.Errorf("memory: restore port from nil snapshot")
	}
	p.portState = s.portState
	return nil
}

// InFlightSnapshot is a deep copy of an in-flight tracker's table. The
// whole open-addressed table (including its current size) is captured so
// a restore reproduces probe order bit-for-bit.
type InFlightSnapshot struct {
	inFlightState
}

// copyInto is the state's copy method (DESIGN.md §3.1): it returns s
// with every slice moved onto dst's backing array, reused when large
// enough.
func (s inFlightState) copyInto(dst inFlightState) inFlightState {
	s.keys = append(dst.keys[:0], s.keys...)
	s.vals = append(dst.vals[:0], s.vals...)
	s.live = append(dst.live[:0], s.live...)
	return s
}

// Snapshot captures the tracker's current state.
func (f *InFlight) Snapshot() *InFlightSnapshot {
	return &InFlightSnapshot{f.inFlightState.copyInto(inFlightState{})}
}

// Restore overwrites the tracker's state with a copy of the snapshot's.
// The target's table takes the snapshot's size (the tracker grows
// dynamically, so sizes legitimately differ across machines).
func (f *InFlight) Restore(s *InFlightSnapshot) error {
	if s == nil {
		return fmt.Errorf("memory: restore in-flight tracker from nil snapshot")
	}
	f.inFlightState = s.inFlightState.copyInto(f.inFlightState)
	return nil
}
