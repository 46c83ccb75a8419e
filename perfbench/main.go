// Command perfbench is the repository's benchmark. One run measures
// one workload for a fixed amount of work sized from -seconds and
// prints its metrics; the last line of standard output is a JSON
// object with keys correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload cmp4-discontinuity --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it reports the per-layer metrics instead: it runs every workload
// once untraced and once traced (the named one at full size, the others
// at a quarter), times calls into each layer from this package's
// wrappers, and checks that tracing changed no simulated result. See
// NOTES.md for why each workload exists and what each metric means.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// setupRepeats is how many times each workload sets up per pass; the
// reported set-up time is the median.
const setupRepeats = 3

// passConfig sizes and seeds one pass over a workload.
type passConfig struct {
	seed    uint64
	seconds float64 // work is sized to take about this long on the reference host
	workDir string  // scratch directory the pass owns
	tr      *tracer // nil for an untraced pass
}

// passResult is one pass's outcome.
type passResult struct {
	workload  string
	attempted int
	failures  []string
	checksum  string
	e2e       map[string]float64
	layer     map[string]float64
}

func (r *passResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// scaled is the number of operations a pass of the given length runs.
func scaled(perSecond, seconds float64) int {
	return max(1, int(math.Round(perSecond*seconds)))
}

type workloadDef struct {
	name string
	run  func(passConfig) (*passResult, error)
}

var workloads = []workloadDef{
	{"cmp4-discontinuity", runCMP4},
	{"sweep-fork", runSweepFork},
	{"service-jobs", runServiceJobs},
}

// Metric units, by name. The end-to-end set is reported by untraced
// runs, the per-layer set by traced runs.
var e2eUnits = map[string]string{
	"sim_minstr_s":   "Minstr/s",
	"sweep_points_s": "1/s",
	"jobs_s":         "1/s",
	"job_p50_ms":     "ms",
	"job_p99_ms":     "ms",
	"setup_s":        "s",
	"heap_mb":        "MiB",
}

var layerUnits = map[string]string{
	"workload.next_ns":            "ns",
	"workload.share":              "ratio",
	"prefetch.onfetch_ns":         "ns",
	"prefetch.ondiscontinuity_ns": "ns",
	"prefetch.share":              "ratio",
	"cmp.self_ns_per_instr":       "ns",
	"cmp.ns_per_l1i_access":       "ns",
	"cache.l1i_mpki":              "1/kinstr",
	"cache.l2i_mpki":              "1/kinstr",
	"cache.l1d_mpki":              "1/kinstr",
	"prefetch.candidates_pki":     "1/kinstr",
	"core.filtered_recent_pki":    "1/kinstr",
	"core.filtered_dup_pki":       "1/kinstr",
	"core.dropped_overflow_pki":   "1/kinstr",
	"prefetch.issued_pki":         "1/kinstr",
	"prefetch.accuracy":           "ratio",
	"bpred.mispredict_pki":        "1/kinstr",
	"memory.offchip_pki":          "1/kinstr",
	"cpu.ipc":                     "instr/cycle",
	"cpu.fetch_stall_cpi":         "cycle/instr",
	"cmp.build_ms":                "ms",
	"cmp.warm_ms":                 "ms",
	"cmp.snapshot_ms":             "ms",
	"cmp.restore_ms":              "ms",
	"cmp.measure_ms":              "ms",
	"sim.point_ms":                "ms",
	"sim.warm_groups":             "count",
	"sim.simulations":             "count",
	"sim.memo_hits":               "count",
	"sim.dedup_waits":             "count",
	"sweep.self_ms":               "ms",
	"corpus.replay_next_ns":       "ns",
	"corpus.share":                "ratio",
	"service.queue_wait_p50_ms":   "ms",
	"service.queue_wait_p99_ms":   "ms",
	"service.exec_hit_ms":         "ms",
	"service.exec_fresh_ms":       "ms",
	"http.overhead_ms":            "ms",
	"service.cache_hit_ratio":     "ratio",
	"service.tracked_jobs":        "count",
	"service.store_entries":       "count",
	"service.heap_kb_per_job":     "KiB",
	"bench.trace_overhead":        "ratio",
}

// expected holds the behaviour checksums recorded for the default seed
// and length, and the host the reference numbers came from.
//
//go:embed expected.json
var expectedJSON []byte

type expectation struct {
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Checksums map[string]string `json:"checksums"`
	Host      string            `json:"host"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	failures  []string
}

// options configure one benchmark run.
type options struct {
	workloads []workloadDef
	expect    expectation
	workload  string
	seed      uint64
	seconds   int
	traced    bool
	buildDir  string // scratch data and the span files of traced runs
}

func main() {
	o := options{workloads: workloads, buildDir: ".bench_build"}
	flag.StringVar(&o.workload, "workload", "", "workload to run: cmp4-discontinuity, sweep-fork or service-jobs")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "run length; the work is sized to take about this long")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced runs, 0 end-to-end metrics")
	flag.Parse()
	if o.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.traced = *trace == 1
	if err := json.Unmarshal(expectedJSON, &o.expect); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: expected.json:", err)
		os.Exit(1)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one benchmark run and builds its report.
func run(o options) (*report, error) {
	idx := -1
	for i, w := range o.workloads {
		if w.name == o.workload {
			idx = i
		}
	}
	if idx < 0 {
		var names []string
		for _, w := range o.workloads {
			names = append(names, w.name)
		}
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	root, err := filepath.Abs(".")
	if err != nil {
		return nil, err
	}
	prov := collectProvenance(root)
	prov.Seed, prov.Workload, prov.Seconds, prov.Trace = o.seed, o.workload, o.seconds, o.traced
	provLine, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", provLine)
	if prov.host() != o.expect.Host {
		fmt.Printf("note: host %q differs from the reference host %q; absolute numbers are not comparable\n", prov.host(), o.expect.Host)
	}

	workDir := filepath.Join(o.buildDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	rep := &report{Metrics: map[string]metric{}}
	var failures []string
	checkExpected := func(r *passResult) {
		want := o.expect.Checksums[r.workload]
		if o.seed == o.expect.Seed && o.seconds == o.expect.Seconds && want != "" && r.checksum != want {
			failures = append(failures, fmt.Sprintf("%s: checksum %s, expected %s for seed %d", r.workload, r.checksum, want, o.seed))
		}
	}
	pass := func(w workloadDef, secs float64, tr *tracer) (*passResult, error) {
		r, err := w.run(passConfig{seed: o.seed, seconds: secs, workDir: filepath.Join(workDir, w.name), tr: tr})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.Attempted += r.attempted
		failures = append(failures, r.failures...)
		mode := "untraced"
		if tr != nil {
			mode = "traced"
		}
		fmt.Printf("checksum %s %s %s (%d operations)\n", w.name, mode, r.checksum, r.attempted)
		return r, nil
	}

	want := e2eUnits
	if !o.traced {
		r, err := pass(o.workloads[idx], float64(o.seconds), nil)
		if err != nil {
			return nil, err
		}
		checkExpected(r)
		for k, v := range r.e2e {
			rep.Metrics[k] = metric{v, e2eUnits[k]}
		}
	} else {
		want = layerUnits
		// The named workload first and at full size; the others supply
		// the layers it does not exercise.
		order := append([]workloadDef{o.workloads[idx]}, o.workloads[:idx]...)
		order = append(order, o.workloads[idx+1:]...)
		for i, w := range order {
			secs := float64(o.seconds)
			if i > 0 {
				secs /= 4
			}
			u, err := pass(w, secs, nil)
			if err != nil {
				return nil, err
			}
			tr := newTracer()
			t, err := pass(w, secs, tr)
			if err != nil {
				return nil, err
			}
			if u.checksum != t.checksum {
				failures = append(failures, fmt.Sprintf("%s: traced checksum %s differs from untraced %s", w.name, t.checksum, u.checksum))
			}
			if i == 0 {
				checkExpected(u)
				checkExpected(t)
			}
			for k, v := range t.layer {
				rep.Metrics[k] = metric{v, layerUnits[k]}
			}
			spans := filepath.Join(o.buildDir, "spans", fmt.Sprintf("%s-seed%d-%s.jsonl", o.workload, o.seed, w.name))
			if err := tr.writeSpans(spans); err != nil {
				return nil, err
			}
			fmt.Printf("spans %s %s (timer %.1f ns per sampled call subtracted)\n", w.name, spans, tr.timerNs)
		}
	}
	for k := range want {
		if _, ok := rep.Metrics[k]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", k)
		}
	}

	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	rep.failures = failures
	rep.Failed = len(failures)
	rep.Correct = rep.Failed == 0
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-28s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	return rep, nil
}
