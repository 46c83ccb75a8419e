package prefetch

import (
	"fmt"

	"repro/internal/isa"
)

// Markov implements a Joseph & Grunwald-style Markov prefetcher [6] at
// cache-line granularity: a direct-mapped table records up to Ways
// distinct successor lines per line, replaced LRU-within-entry. On a
// triggering fetch, all recorded successors of the current line are
// prefetched.
//
// Compared to the paper's discontinuity prefetcher it spends table space
// on sequential transitions too and prefetches several alternatives per
// trigger, trading accuracy for coverage of multi-target transitions.
// It is included as a related-work baseline (paper Section 2.2).
type Markov struct {
	mask uint64
	ways int
	markovState
}

// markovState is the prefetcher's mutable state (see copyInto).
type markovState struct {
	entries []mentry
	// succ holds each entry's successor list, MRU first, in a flat
	// array: entry i owns succ[i*ways : i*ways+entries[i].n].
	succ    []isa.Line
	last    isa.Line
	started bool
}

type mentry struct {
	line  isa.Line
	n     int32 // recorded successors
	valid bool
}

// NewMarkov builds a Markov prefetcher with the given table size (power
// of two) and successors per entry.
func NewMarkov(tableEntries, ways int) *Markov {
	if tableEntries <= 0 || tableEntries&(tableEntries-1) != 0 {
		panic("prefetch: markov table entries must be a positive power of two")
	}
	if ways < 1 {
		panic("prefetch: markov ways must be >= 1")
	}
	return &Markov{
		mask: uint64(tableEntries - 1),
		ways: ways,
		markovState: markovState{
			entries: make([]mentry, tableEntries),
			succ:    make([]isa.Line, tableEntries*ways),
		},
	}
}

// Name implements Prefetcher.
func (p *Markov) Name() string { return fmt.Sprintf("markov%dx%d", len(p.entries), p.ways) }

// successors returns entry i's full successor window (capacity ways).
func (p *Markov) successors(i uint64) []isa.Line {
	base := int(i) * p.ways
	return p.succ[base : base+p.ways]
}

// OnFetch implements Prefetcher: train on every transition, predict on
// misses and prefetch-tag hits.
func (p *Markov) OnFetch(ev Event, out []isa.Line) []isa.Line {
	if p.started && p.last != ev.Line {
		p.train(p.last, ev.Line)
	}
	p.last = ev.Line
	p.started = true

	if !(ev.Miss || ev.PrefetchHit) {
		return out
	}
	i := uint64(ev.Line) & p.mask
	if e := &p.entries[i]; e.valid && e.line == ev.Line {
		out = append(out, p.successors(i)[:e.n]...)
	}
	return out
}

func (p *Markov) train(from, to isa.Line) {
	i := uint64(from) & p.mask
	e := &p.entries[i]
	if !e.valid || e.line != from {
		e.line = from
		e.valid = true
		e.n = 0
	}
	win := p.successors(i)
	// Move-to-front if present.
	for j, s := range win[:e.n] {
		if s == to {
			copy(win[1:j+1], win[0:j])
			win[0] = to
			return
		}
	}
	if int(e.n) < p.ways {
		e.n++
	}
	copy(win[1:e.n], win[0:e.n-1])
	win[0] = to
}

// OnDiscontinuity implements Prefetcher (training happens in OnFetch).
func (p *Markov) OnDiscontinuity(isa.Line, isa.Line, bool) {}

// OnPrefetchUseful implements Prefetcher.
func (p *Markov) OnPrefetchUseful(isa.Line) {}

// Reset implements Prefetcher.
func (p *Markov) Reset() {
	for i := range p.entries {
		p.entries[i].valid = false
		p.entries[i].n = 0
	}
	p.started = false
	p.last = 0
}
