package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/prefetch"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks
// the emitted metrics against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func shortRun(t *testing.T, defs []workloadDef, name string, traced bool, exp expectation) *report {
	t.Helper()
	rep, err := run(options{workloads: defs, expect: exp, workload: name, seed: 2, seconds: 1, traced: traced, buildDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", name, traced, err)
	}
	return rep
}

// checkMetrics asserts the report carries exactly the named metrics,
// each with its unit.
func checkMetrics(t *testing.T, label string, rep *report, want map[string]string) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", label, len(rep.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := rep.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s unit %q, want %q", label, name, m.Unit, unit)
		}
	}
}

func TestShortRunsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		rep := shortRun(t, workloads, w.Name, false, expectation{})
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.Name, rep.Correct, rep.Failed, rep.Attempted)
		}
		checkMetrics(t, w.Name, rep, e2e)
	}
	// A traced run measures every workload's layers, whichever it names.
	rep := shortRun(t, workloads, bf.Workloads[0].Name, true, expectation{})
	if !rep.Correct || rep.Failed != 0 {
		t.Errorf("traced: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
	checkMetrics(t, "traced", rep, layers)
}

func TestTracingChangesNoChecksum(t *testing.T) {
	for _, w := range workloads {
		cfg := passConfig{seed: 3, seconds: 0.25, workDir: t.TempDir()}
		u, err := w.run(cfg)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		cfg.tr = newTracer()
		tr, err := w.run(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if u.checksum == "" || u.checksum != tr.checksum {
			t.Errorf("%s: untraced checksum %q, traced %q", w.name, u.checksum, tr.checksum)
		}
	}
}

// dropCandidates is a timing wrapper that also changes behaviour: it
// discards the candidates of one demand fetch in 97.
type dropCandidates struct {
	*timedPrefetcher
	n int
}

func (p *dropCandidates) OnFetch(ev prefetch.Event, out []isa.Line) []isa.Line {
	res := p.timedPrefetcher.OnFetch(ev, out)
	if p.n++; p.n%97 == 0 {
		return out
	}
	return res
}

func TestChecksumMismatchIsAFailure(t *testing.T) {
	defs := append([]workloadDef(nil), workloads...)
	defs[0].run = func(cfg passConfig) (*passResult, error) {
		if cfg.tr == nil {
			return runCMP4(cfg)
		}
		return runCMP4With(cfg, func(pf prefetch.Prefetcher) (prefetch.Prefetcher, error) {
			w, err := cfg.tr.wrapPrefetcher(pf)
			if err != nil {
				return nil, err
			}
			return &dropCandidates{timedPrefetcher: w.(*timedPrefetcher)}, nil
		})
	}
	rep := shortRun(t, defs, defs[0].name, true, expectation{})
	if !hasFailure(rep, "traced checksum") || rep.Correct {
		t.Errorf("a traced pass that changed behaviour passed: correct=%v failures=%q", rep.Correct, rep.failures)
	}

	wrong := expectation{Seed: 2, Seconds: 1, Checksums: map[string]string{"service-jobs": "0000000000000000"}}
	rep = shortRun(t, workloads, "service-jobs", false, wrong)
	if !hasFailure(rep, "expected 0000000000000000") || rep.Correct || rep.Failed != 1 {
		t.Errorf("a run off its expected checksum passed: correct=%v failures=%q", rep.Correct, rep.failures)
	}
}

func hasFailure(rep *report, substr string) bool {
	for _, f := range rep.failures {
		if strings.Contains(f, substr) {
			return true
		}
	}
	return false
}
