package prefetch_test

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/prefetch/hybrid"
)

// feed drives p with a deterministic stream of fetches (misses and
// prefetch-tag hits), discontinuities, useful-prefetch feedback, and —
// for schemes that observe them — issues, L1 evictions and resolved
// branches. It returns every candidate p emitted.
func feed(p prefetch.Prefetcher, seed uint64, n int) []isa.Line {
	issue, _ := p.(prefetch.IssueObserver)
	evict, _ := p.(prefetch.EvictionObserver)
	branch, _ := p.(prefetch.BranchObserver)
	out := []isa.Line{}
	x := seed
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for i := 0; i < n; i++ {
		v := next()
		line := isa.Line(v >> 40 & 0x3FF)
		start := len(out)
		out = p.OnFetch(prefetch.Event{Line: line, Miss: v&3 == 0, PrefetchHit: v&7 == 1}, out)
		if v&3 == 0 {
			p.OnDiscontinuity(line, isa.Line(next()>>40&0x3FF), v&1 == 0)
		}
		if branch != nil && v&7 == 3 {
			out = branch.OnBranch(line+9, line+1, v&8 == 0, out)
		}
		if issue != nil {
			for _, l := range out[start:] {
				issue.OnPrefetchIssued(l)
			}
		}
		if v&15 == 2 {
			p.OnPrefetchUseful(line)
		}
		if evict != nil && v&15 == 5 {
			evict.OnL1Eviction(line, v&16 == 0)
		}
	}
	return out
}

// diagnostics collects the counters a scheme exposes.
func diagnostics(p prefetch.Prefetcher) []any {
	var d []any
	switch x := p.(type) {
	case *prefetch.Discontinuity:
		d = append(d, x.Allocations(), x.Replacements(), x.ProbeHitRate(), x.Suppressed(), x.Occupancy())
	case *prefetch.MANA:
		d = append(d, x.Commits(), x.RecordDedups())
	case *prefetch.ProgMap:
		d = append(d, x.Edges(), x.Traversed())
	case *prefetch.Streams:
		d = append(d, x.ActiveStreams())
	case *hybrid.Composite:
		for i := range x.Components() {
			d = append(d, x.AccuracyEstimate(i))
		}
	}
	if r, ok := p.(prefetch.ComponentReporter); ok {
		d = append(d, r.ComponentCounters())
	}
	return d
}

// TestResetMatchesFresh: a scheme that was trained and then Reset must
// behave exactly like a freshly built one — a fork measuring a scheme
// other than the warm-up's starts it this way. Behaviour is compared
// (candidates and counters), not bytes: tables may keep stale keys
// behind cleared valid bits.
func TestResetMatchesFresh(t *testing.T) {
	names := append(prefetch.SchemeNames(),
		"discontinuity:confidence=true",
		"hybrid:discontinuity+mana+progmap",
		"hybrid:markov+streams+wrong-path+target")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			used := prefetch.MustNew(name)
			feed(used, 42, 3000)
			used.Reset()
			fresh := prefetch.MustNew(name)
			got, want := feed(used, 7, 3000), feed(fresh, 7, 3000)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reset instance emitted %d candidates, fresh %d (or in a different order)", len(got), len(want))
			}
			if got, want := diagnostics(used), diagnostics(fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("diagnostics after reset %v, fresh %v", got, want)
			}
		})
	}
}
