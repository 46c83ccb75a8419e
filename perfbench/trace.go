package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/workload"
)

// sampleMask selects which hot-interface calls a traced run times: one
// call in sampleMask+1. Reading the clock twice costs tens of
// nanoseconds, about as much as a whole Source.Next, so timing every
// call would measure the clock rather than the layer.
const sampleMask = 63

// tracer records the traced run: spans at layer boundaries (one per
// machine run, sweep point and job) kept in memory, and sampled
// count/total aggregates for the hot per-call interfaces. A nil tracer
// means untraced: its wrap methods return what they are given, and
// record, resetCalls and callTotals do nothing.
type tracer struct {
	start time.Time
	// timerNs is the measured cost of timing an empty call through a
	// wrapper; it is subtracted from every sampled call.
	timerNs float64

	mu    sync.Mutex
	spans []span
	calls map[string][]*callStats
}

// span is one timed interval at a layer boundary. Spans of one request
// share ID; Parent names the enclosing span's ID.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// callStats aggregates one wrapper instance's calls. A wrapper is used
// by one simulated core, so it is updated without synchronisation and
// read only after the machine has stopped.
type callStats struct {
	calls     uint64
	sampled   uint64
	sampledNs int64
}

// sample runs f, timing it on one call in sampleMask+1. Source.Next
// and Prefetcher.OnFetch inline this logic instead: they run once per
// block and per fetch, where a closure call would add to the overhead
// tracing imposes.
func (c *callStats) sample(f func()) {
	c.calls++
	if c.calls&sampleMask != 0 {
		f()
		return
	}
	t0 := time.Now()
	f()
	c.sampledNs += int64(time.Since(t0))
	c.sampled++
}

func newTracer() *tracer {
	t := &tracer{start: time.Now(), calls: map[string][]*callStats{}}
	t.timerNs = calibrateTimer()
	return t
}

// calibrateTimer measures the mean sampled duration of an empty call
// through the same wrapper and dispatch a traced Source.Next takes.
func calibrateTimer() float64 {
	st := &callStats{}
	src := &timedSource{inner: emptySource{}, st: st}
	var b isa.Block
	for i := 0; i < 1<<21; i++ {
		src.Next(&b)
	}
	return float64(st.sampledNs) / float64(st.sampled)
}

type emptySource struct{}

func (emptySource) Next(*isa.Block) {}

// stats registers a new per-instance aggregate under name.
func (t *tracer) stats(name string) *callStats {
	st := &callStats{}
	t.mu.Lock()
	t.calls[name] = append(t.calls[name], st)
	t.mu.Unlock()
	return st
}

// resetCalls zeroes every aggregate, so totals cover only what runs
// afterwards. Call it while no traced machine is running.
func (t *tracer) resetCalls() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sts := range t.calls {
		for _, st := range sts {
			*st = callStats{}
		}
	}
}

// callTotals sums name's aggregates: calls made, and the estimated
// host time they took with the timer cost removed.
func (t *tracer) callTotals(name string) (calls uint64, meanNs, totalNs float64) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sampled uint64
	var ns int64
	for _, st := range t.calls[name] {
		calls += st.calls
		sampled += st.sampled
		ns += st.sampledNs
	}
	if sampled == 0 {
		return calls, 0, 0
	}
	meanNs = float64(ns)/float64(sampled) - t.timerNs
	if meanNs < 0 {
		meanNs = 0
	}
	return calls, meanNs, meanNs * float64(calls)
}

// record adds a span; start and end are absolute times.
func (t *tracer) record(name, id, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.start)), End: int64(end.Sub(t.start))})
	t.mu.Unlock()
}

// writeSpans writes the recorded spans, one JSON object a line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSource wraps a workload.Source, sampling the host time of Next.
// It forwards snapshots, so fork-warm machines can restore through it.
type timedSource struct {
	inner workload.Source
	st    *callStats
}

func (s *timedSource) Next(b *isa.Block) {
	st := s.st
	st.calls++
	if st.calls&sampleMask != 0 {
		s.inner.Next(b)
		return
	}
	t0 := time.Now()
	s.inner.Next(b)
	st.sampledNs += int64(time.Since(t0))
	st.sampled++
}

func (s *timedSource) SnapshotState() (any, error) {
	snap, ok := s.inner.(workload.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("perfbench: source %T has no snapshot support", s.inner)
	}
	return snap.SnapshotState()
}

func (s *timedSource) RestoreState(state any) error {
	snap, ok := s.inner.(workload.Snapshotter)
	if !ok {
		return fmt.Errorf("perfbench: source %T has no snapshot support", s.inner)
	}
	return snap.RestoreState(state)
}

// wrapSource returns src timed under name, or src itself untraced.
func (t *tracer) wrapSource(name string, src workload.Source) workload.Source {
	if t == nil {
		return src
	}
	return &timedSource{inner: src, st: t.stats(name)}
}

// timedPrefetcher wraps a prefetch scheme, sampling the host time of
// each callback the front-end makes. It forwards snapshots and L1-I
// eviction notices. Schemes with other optional observer interfaces,
// or without snapshots, are refused (see wrapPrefetcher): hiding an
// interface would change what the front-end does.
type timedPrefetcher struct {
	inner                                 prefetch.Prefetcher
	snap                                  prefetch.Snapshotter
	evict                                 prefetch.EvictionObserver
	onFetch, onDisc, onUseful, onEviction *callStats
}

// Aggregate names of the wrapped hot interfaces.
const (
	statWorkloadNext = "workload.Next"
	statCorpusReplay = "corpus.Next"
	statOnFetch      = "prefetch.OnFetch"
	statOnDisc       = "prefetch.OnDiscontinuity"
	statOnUseful     = "prefetch.OnPrefetchUseful"
	statOnL1Eviction = "prefetch.OnL1Eviction"
)

// prefetchStats lists every prefetch-layer aggregate.
var prefetchStats = []string{statOnFetch, statOnDisc, statOnUseful, statOnL1Eviction}

// wrapPrefetcher returns pf timed, or pf itself untraced.
func (t *tracer) wrapPrefetcher(pf prefetch.Prefetcher) (prefetch.Prefetcher, error) {
	if t == nil {
		return pf, nil
	}
	switch pf.(type) {
	case prefetch.BranchObserver, prefetch.IssueObserver, prefetch.ComponentReporter:
		return nil, fmt.Errorf("perfbench: cannot time scheme %s: it implements an observer interface the wrapper would hide", pf.Name())
	}
	snap, ok := pf.(prefetch.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("perfbench: cannot time scheme %s: it has no snapshot support", pf.Name())
	}
	w := &timedPrefetcher{
		inner:      pf,
		snap:       snap,
		onFetch:    t.stats(statOnFetch),
		onDisc:     t.stats(statOnDisc),
		onUseful:   t.stats(statOnUseful),
		onEviction: t.stats(statOnL1Eviction),
	}
	w.evict, _ = pf.(prefetch.EvictionObserver)
	return w, nil
}

func (p *timedPrefetcher) Name() string { return p.inner.Name() }

func (p *timedPrefetcher) OnFetch(ev prefetch.Event, out []isa.Line) []isa.Line {
	st := p.onFetch
	st.calls++
	if st.calls&sampleMask != 0 {
		return p.inner.OnFetch(ev, out)
	}
	t0 := time.Now()
	out = p.inner.OnFetch(ev, out)
	st.sampledNs += int64(time.Since(t0))
	st.sampled++
	return out
}

func (p *timedPrefetcher) OnDiscontinuity(trigger, target isa.Line, targetMissed bool) {
	p.onDisc.sample(func() { p.inner.OnDiscontinuity(trigger, target, targetMissed) })
}

func (p *timedPrefetcher) OnPrefetchUseful(line isa.Line) {
	p.onUseful.sample(func() { p.inner.OnPrefetchUseful(line) })
}

// OnL1Eviction forwards to a scheme that observes evictions; for one
// that does not, the front-end's notice is dropped, as it would be
// without the wrapper.
func (p *timedPrefetcher) OnL1Eviction(line isa.Line, wasUsed bool) {
	if p.evict == nil {
		return
	}
	p.onEviction.sample(func() { p.evict.OnL1Eviction(line, wasUsed) })
}

func (p *timedPrefetcher) Reset() { p.inner.Reset() }

func (p *timedPrefetcher) SnapshotState() any { return p.snap.SnapshotState() }

func (p *timedPrefetcher) RestoreState(state any) error { return p.snap.RestoreState(state) }
