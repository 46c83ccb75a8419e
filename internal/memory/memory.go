// Package memory models what lies beyond the L2: a fixed-latency DRAM
// behind a finite off-chip link, plus MSHR-style tracking of in-flight
// line transfers.
//
// The paper's machine is a 3 GHz part with 10 GB/s (single core) or
// 20 GB/s (4-way CMP) of off-chip bandwidth and a 400-cycle memory
// latency. Bandwidth matters because aggressive prefetching generates
// off-chip traffic that can delay demand misses — one of the two reasons
// (with pollution) the paper gives for prefetchers not reaching the
// limits-study gains.
package memory

import "repro/internal/isa"

// PortConfig describes the off-chip link and DRAM.
type PortConfig struct {
	// LatencyCycles is the unloaded memory access latency.
	LatencyCycles uint64
	// BytesPerCycle is the sustainable off-chip bandwidth expressed in
	// bytes per core clock (e.g. 10 GB/s at 3 GHz = 3.33 B/cycle).
	BytesPerCycle float64
	// LineBytes is the transfer unit.
	LineBytes int
}

// Port serialises line transfers over the off-chip link. A transfer
// arriving at cycle t begins when the link is free, occupies the link for
// LineBytes/BytesPerCycle cycles, and completes a full DRAM latency after
// it began. Not safe for concurrent use.
type Port struct {
	latency       uint64
	cyclesPerLine float64
	portState
}

// portState is the port's mutable state; Snapshot and Restore copy it
// whole.
type portState struct {
	nextFree   float64
	transfers  uint64
	busyCycles float64
}

// NewPort builds a port; a zero or negative bandwidth means an infinite
// link (transfers never queue).
func NewPort(cfg PortConfig) *Port {
	p := &Port{latency: cfg.LatencyCycles}
	if cfg.BytesPerCycle > 0 {
		p.cyclesPerLine = float64(cfg.LineBytes) / cfg.BytesPerCycle
	}
	return p
}

// Request schedules one line transfer issued at cycle now and returns the
// cycle at which the line is available on chip.
func (p *Port) Request(now uint64) uint64 {
	start := float64(now)
	if p.nextFree > start {
		start = p.nextFree
	}
	p.nextFree = start + p.cyclesPerLine
	p.transfers++
	p.busyCycles += p.cyclesPerLine
	return uint64(start) + p.latency
}

// Latency returns the unloaded DRAM latency in cycles.
func (p *Port) Latency() uint64 { return p.latency }

// Transfers returns the number of line transfers performed.
func (p *Port) Transfers() uint64 { return p.transfers }

// BusyCycles returns total link occupancy, for utilisation reporting.
func (p *Port) BusyCycles() float64 { return p.busyCycles }

// QueueDelay returns how long a request issued at now would wait before
// its transfer begins (diagnostics; does not reserve the link).
func (p *Port) QueueDelay(now uint64) uint64 {
	if p.nextFree <= float64(now) {
		return 0
	}
	return uint64(p.nextFree - float64(now))
}

// InFlight tracks lines whose fills have been initiated but not yet
// completed — the simulator's MSHR file. A demand reference that finds
// its line in flight waits only for the remaining latency instead of
// initiating a second transfer; this is how partially-timely prefetches
// hide part of the miss latency.
//
// Every instruction fetch, data access and prefetch issue consults this
// tracker, so it is implemented as an open-addressed hash table (linear
// probing, backward-shift deletion) rather than a Go map: the table
// keeps keys and completion times in flat arrays with no per-operation
// allocation or hashing indirection. The tracked set and every query
// result are identical to the previous map-backed implementation.
type InFlight struct {
	cap int
	inFlightState
}

// inFlightState is the tracker's mutable state, including the table
// size (the table grows); Snapshot and Restore copy it whole (see
// copyInto).
type inFlightState struct {
	keys  []isa.Line
	vals  []uint64
	live  []bool
	mask  uint64
	shift uint
	n     int
}

// NewInFlight creates a tracker with the given capacity. Capacity 0
// means unbounded.
func NewInFlight(capacity int) *InFlight {
	f := &InFlight{cap: capacity}
	f.alloc(64)
	return f
}

func (f *InFlight) alloc(size int) {
	f.keys = make([]isa.Line, size)
	f.vals = make([]uint64, size)
	f.live = make([]bool, size)
	f.mask = uint64(size - 1)
	shift := uint(0)
	for s := size; s > 1; s >>= 1 {
		shift++
	}
	f.shift = 64 - shift
}

// home returns the key's preferred table position (Fibonacci hashing:
// line addresses are near-sequential and need multiplicative mixing).
func (f *InFlight) home(l isa.Line) uint64 {
	const phi = 0x9E3779B97F4A7C15
	return (uint64(l) * phi) >> f.shift
}

// grow doubles the table and rehashes all live entries.
func (f *InFlight) grow() {
	keys, vals, live := f.keys, f.vals, f.live
	f.alloc(2 * len(keys))
	for i, ok := range live {
		if !ok {
			continue
		}
		l, v := keys[i], vals[i]
		for h := f.home(l); ; h = (h + 1) & f.mask {
			if !f.live[h] {
				f.keys[h], f.vals[h], f.live[h] = l, v, true
				break
			}
		}
	}
}

// remove deletes the entry at table position h, compacting the probe
// chain behind it (backward-shift deletion for linear probing).
func (f *InFlight) remove(h uint64) {
	i := h
	f.live[i] = false
	f.n--
	for j := (i + 1) & f.mask; f.live[j]; j = (j + 1) & f.mask {
		k := f.home(f.keys[j])
		// Move j's entry into the hole at i unless its home position
		// lies strictly inside the cyclic interval (i, j].
		var inInterval bool
		if i < j {
			inInterval = k > i && k <= j
		} else {
			inInterval = k > i || k <= j
		}
		if !inInterval {
			f.keys[i], f.vals[i], f.live[i] = f.keys[j], f.vals[j], true
			f.live[j] = false
			i = j
		}
	}
}

// Start records that line l completes at the given cycle. It returns
// false (and records nothing) when the tracker is full, modelling MSHR
// exhaustion. Starting an already-tracked line keeps the earlier
// completion time.
func (f *InFlight) Start(l isa.Line, completeAt uint64) bool {
	h := f.home(l)
	for ; f.live[h]; h = (h + 1) & f.mask {
		if f.keys[h] == l {
			if completeAt < f.vals[h] {
				f.vals[h] = completeAt
			}
			return true
		}
	}
	if f.cap > 0 && f.n >= f.cap {
		return false
	}
	f.keys[h], f.vals[h], f.live[h] = l, completeAt, true
	f.n++
	if 2*f.n > len(f.keys) {
		f.grow()
	}
	return true
}

// Lookup returns the completion cycle for line l if it is in flight at
// cycle now. Entries whose completion is at or before now are treated as
// landed and removed.
func (f *InFlight) Lookup(l isa.Line, now uint64) (uint64, bool) {
	for h := f.home(l); f.live[h]; h = (h + 1) & f.mask {
		if f.keys[h] != l {
			continue
		}
		if c := f.vals[h]; c > now {
			return c, true
		}
		f.remove(h)
		return 0, false
	}
	return 0, false
}

// Contains reports whether l is tracked (regardless of completion time).
func (f *InFlight) Contains(l isa.Line) bool {
	for h := f.home(l); f.live[h]; h = (h + 1) & f.mask {
		if f.keys[h] == l {
			return true
		}
	}
	return false
}

// Complete removes line l from the tracker (its fill has been consumed).
func (f *InFlight) Complete(l isa.Line) {
	for h := f.home(l); f.live[h]; h = (h + 1) & f.mask {
		if f.keys[h] == l {
			f.remove(h)
			return
		}
	}
}

// Expire removes all entries whose completion cycle is at or before now.
// The simulator calls it periodically to bound table growth. Landed
// entries are collected first and then deleted one by one, because
// backward-shift deletion moves entries while a scan is in progress.
func (f *InFlight) Expire(now uint64) {
	var landed []isa.Line
	for i, ok := range f.live {
		if ok && f.vals[i] <= now {
			landed = append(landed, f.keys[i])
		}
	}
	for _, l := range landed {
		f.Complete(l)
	}
}

// Len returns the number of in-flight lines.
func (f *InFlight) Len() int { return f.n }
