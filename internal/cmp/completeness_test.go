package cmp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/codesign"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// machine adapts a System to the oracle: one step runs every core
// oracleSlice instructions.
type machine struct {
	sys *System
}

const oracleSlice = 2_000

func (m *machine) step()                  { m.sys.Run(oracleSlice) }
func (m *machine) snapshot() (any, error) { return m.sys.Snapshot() }
func (m *machine) restore(snap any) error { return m.sys.Restore(snap.(*Snapshot)) }

// warmMachine runs the oracle's warm-up in two halves with a
// statistics reset between them, as a fork-warm run does, so the
// measurement baselines carry non-zero values into the snapshot.
func warmMachine(f forkable) {
	m := f.(*machine)
	m.sys.Run(15 * oracleSlice)
	m.sys.ResetStats()
	m.sys.Run(15 * oracleSlice)
}

// oracleCase is one machine configuration under the oracle.
type oracleCase struct {
	name    string
	cfg     Config
	sources func(t *testing.T) []workload.Source
}

// generatorSources builds per-core generator walks over the named
// applications.
func generatorSources(names ...string) func(t *testing.T) []workload.Source {
	return func(t *testing.T) []workload.Source {
		t.Helper()
		srcs, err := SourcesFor(names, len(names), 1)
		if err != nil {
			t.Fatal(err)
		}
		return srcs
	}
}

// traceSources records a short DB stream once and replays it on every
// core; all machines share the container, as corpus replays do.
func traceSources(t *testing.T, cores int) func(t *testing.T) []workload.Source {
	t.Helper()
	var buf bytes.Buffer
	gen := workload.NewGenerator(workload.MustBuildProgram(workload.DB(), 0), 7)
	if err := trace.RecordV2(&buf, "DB", 0, gen, 60_000, 1_024); err != nil {
		t.Fatal(err)
	}
	ir, err := trace.OpenIndexed(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return func(t *testing.T) []workload.Source {
		t.Helper()
		srcs := make([]workload.Source, cores)
		for i := range srcs {
			src, err := workload.FromTrace(ir)
			if err != nil {
				t.Fatal(err)
			}
			srcs[i] = src
		}
		return srcs
	}
}

func oracleCases(t *testing.T) []oracleCase {
	var cases []oracleCase
	schemes := append(prefetch.SchemeNames(),
		"hybrid:discontinuity+mana+progmap",
		"hybrid:markov+streams+wrong-path",
		"discontinuity:confidence=true")
	for _, scheme := range schemes {
		cfg := DefaultConfig(1)
		cfg.PrefetcherName = scheme
		cases = append(cases, oracleCase{"1-core/" + scheme, cfg, generatorSources("DB")})
	}

	mixed := DefaultConfig(4)
	mixed.PrefetcherName = "discontinuity"
	mixed.FrontEnd.BypassL2 = true
	cases = append(cases, oracleCase{"4-core/Mixed/discontinuity+bypass", mixed,
		generatorSources("DB", "TPC-W", "jApp", "Web")})

	replay := DefaultConfig(4)
	replay.PrefetcherName = "hybrid:discontinuity+streams"
	cases = append(cases, oracleCase{"4-core/trace-replay/hybrid", replay, traceSources(t, 4)})

	// The co-design axes, plus write-back modelling and a Random L2
	// (whose victim generator is cache state).
	cd := DefaultConfig(4)
	cd.PrefetcherName = "discontinuity"
	cd.FrontEnd.PrefetchInsert = codesign.InsertMid
	cd.Mem.PrefetchInsert = codesign.InsertLRU
	cd.FrontEnd.TLBFill = codesign.TLBFillPrimary
	cd.FrontEnd.WrongPath = codesign.WrongPathPolicy{Mode: codesign.WrongPathPollute, Depth: 2}
	cd.FrontEnd.L2UsefulnessFilter = true
	cd.ModelWritebacks = true
	cd.Mem.L2.Policy = cache.Random
	cases = append(cases, oracleCase{"4-core/codesign", cd, generatorSources("DB", "DB", "jApp", "jApp")})
	return cases
}

// TestSnapshotCompleteness runs the snapshot-completeness oracle over
// every registry scheme, composite schemes, both workload sources,
// 1- and 4-core machines and the co-design axes: a fork restored from
// a warm machine's snapshot must equal the machine in every reachable
// field, and stay equal while both run. A field added to a component
// but left out of its snapshot fails here.
func TestSnapshotCompleteness(t *testing.T) {
	for _, tc := range oracleCases(t) {
		t.Run(strings.ReplaceAll(tc.name, "/", "_"), func(t *testing.T) {
			build := func() forkable {
				return &machine{MustNew(tc.cfg, tc.sources(t), nil)}
			}
			if diffs := checkFork(build, warmMachine, 3); len(diffs) > 0 {
				t.Fatalf("fork differs from its source:\n  %s", strings.Join(diffs, "\n  "))
			}
		})
	}
}
