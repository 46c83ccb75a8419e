package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cmp"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/workload"
)

// cmp4-discontinuity: the paper's 4-core CMP on the Mixed workload
// (one of DB, TPC-W, jApp, Web per core) with the discontinuity
// prefetcher and L2 bypass, driven directly through cmp.System.Run.
// After a warm-up in set-up, one long measured window is stepped in
// fixed slices; each slice is one operation.
const (
	cmp4Scheme          = "discontinuity"
	cmp4WarmPerCore     = 400_000
	cmp4SlicePerCore    = 2_500
	cmp4SlicesPerSecond = 500
	// cmp4ReplaySlices is how many leading slices the determinism check
	// re-simulates on a fresh machine.
	cmp4ReplaySlices = 20
	// bench.trace_overhead alternates cmp4OverheadRounds turns of
	// cmp4OverheadSlices slices on an untraced and a traced machine.
	cmp4OverheadRounds = 20
	cmp4OverheadSlices = 25
)

var cmp4Apps = []string{"DB", "TPC-W", "jApp", "Web"}

// wrapScheme turns the registry's scheme into the one a core runs; the
// traced pass passes the timing wrapper.
type wrapScheme func(prefetch.Prefetcher) (prefetch.Prefetcher, error)

// buildCMP4 assembles the machine: the program images, one source per
// core (timed when traced) and the scheme (through wrap when set).
func buildCMP4(seed uint64, tr *tracer, wrap wrapScheme) (*cmp.System, error) {
	// SourcesFor caches images per process; build them here as a fresh
	// process would, so every set-up repetition pays for them.
	for asid, app := range cmp4Apps {
		prof, err := workload.ByName(app)
		if err != nil {
			return nil, err
		}
		if _, err := workload.BuildProgram(prof, uint64(asid)); err != nil {
			return nil, err
		}
	}
	srcs, err := cmp.SourcesFor(cmp4Apps, len(cmp4Apps), seed)
	if err != nil {
		return nil, err
	}
	for i := range srcs {
		srcs[i] = tr.wrapSource(statWorkloadNext, srcs[i])
	}
	cfg := cmp.DefaultConfig(len(cmp4Apps))
	cfg.PrefetcherName = cmp4Scheme
	cfg.FrontEnd.BypassL2 = true
	var override func(int) prefetch.Prefetcher
	var wrapErr error
	if wrap != nil {
		override = func(int) prefetch.Prefetcher {
			pf, err := wrap(prefetch.MustNew(cmp4Scheme))
			if err != nil {
				wrapErr = err
				return prefetch.MustNew(cmp4Scheme)
			}
			return pf
		}
	}
	sys, err := cmp.New(cfg, srcs, override)
	if err != nil {
		return nil, err
	}
	return sys, wrapErr
}

// warmCMP4 builds the machine and runs its warm-up, leaving it at the
// start of the measured window.
func warmCMP4(seed uint64, tr *tracer, wrap wrapScheme) (*cmp.System, error) {
	sys, err := buildCMP4(seed, tr, wrap)
	if err != nil {
		return nil, err
	}
	sys.Run(cmp4WarmPerCore)
	sys.ResetStats()
	return sys, nil
}

// cmp4Slice is the machine's cumulative state after one slice: every
// simulated statistic, which the checksum covers.
type cmp4Slice struct {
	Total   stats.CoreStats
	PerCore []stats.CoreStats
	OffChip uint64
}

func sliceOf(sys *cmp.System) cmp4Slice {
	sys.Finalize()
	s := cmp4Slice{Total: sys.TotalStats(), OffChip: sys.Mem().Port().Transfers()}
	for i := range sys.Cores() {
		s.PerCore = append(s.PerCore, *sys.CoreStats(i))
	}
	return s
}

// checkSlice reports an invariant a slice breaks, or "".
func checkSlice(s cmp4Slice, prev []stats.CoreStats) string {
	for i, c := range s.PerCore {
		if c.Instructions < prev[i].Instructions+cmp4SlicePerCore {
			return fmt.Sprintf("core %d retired %d instructions, want >= %d", i, c.Instructions-prev[i].Instructions, cmp4SlicePerCore)
		}
		if c.Cycles <= prev[i].Cycles {
			return fmt.Sprintf("core %d clock did not advance", i)
		}
	}
	t := s.Total
	switch {
	case t.Prefetch.Useful > t.Prefetch.Issued:
		return "more useful prefetches than issued"
	case t.L1I.Misses > t.L1I.Accesses || t.L2I.Misses > t.L2I.Accesses:
		return "more misses than accesses"
	case t.Prefetch.Issued == 0:
		return "the discontinuity scheme issued no prefetches"
	}
	return ""
}

func runCMP4(cfg passConfig) (*passResult, error) {
	var wrap wrapScheme
	if cfg.tr != nil {
		wrap = cfg.tr.wrapPrefetcher
	}
	return runCMP4With(cfg, wrap)
}

// runCMP4With runs the workload with the given scheme wrapper; the
// self-test passes one that changes behaviour.
func runCMP4With(cfg passConfig, wrap wrapScheme) (*passResult, error) {
	tr := cfg.tr
	res := &passResult{workload: "cmp4-discontinuity"}

	// Set-up: program images, machine build and warm-up, repeated; the
	// last machine is measured.
	var sys *cmp.System
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		s, err := warmCMP4(cfg.seed, tr, wrap)
		if err != nil {
			return nil, fmt.Errorf("cmp4: build: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		sys = s
	}
	offChip0 := sys.Mem().Port().Transfers()
	tr.resetCalls() // the layer aggregates cover the measured window only

	n := scaled(cmp4SlicesPerSecond, cfg.seconds)
	lat := make([]float64, n)
	res.attempted = n
	d := newDigest()
	var head []cmp4Slice // the leading slices the replay check compares
	prev := make([]stats.CoreStats, len(cmp4Apps))
	var last cmp4Slice
	var runNs int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sys.Run(cmp4SlicePerCore)
		el := time.Since(t0)
		runNs += int64(el)
		lat[i] = ms(el)
		tr.record("cmp.System.Run", "cmp4", "", t0, t0.Add(el))
		cur := sliceOf(sys)
		d.add(cur)
		if msg := checkSlice(cur, prev); msg != "" {
			res.fail("cmp4: slice %d: %s", i, msg)
		}
		if i < cmp4ReplaySlices {
			head = append(head, cur)
		}
		prev, last = cur.PerCore, cur
	}
	res.checksum = d.sum()
	heap := liveHeapMB()
	runtime.KeepAlive(sys)

	// Correctness: the invariants above on every slice, and a
	// re-simulation of the leading slices on a fresh untraced machine,
	// which must match bit for bit.
	replay, err := warmCMP4(cfg.seed, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("cmp4: replay: %w", err)
	}
	for i, want := range head {
		replay.Run(cmp4SlicePerCore)
		if !sameJSON(sliceOf(replay), want) {
			res.fail("cmp4: slice %d: re-simulation on a fresh machine diverged", i)
		}
	}

	runSec := float64(runNs) / 1e9
	res.e2e = map[string]float64{
		"sim_minstr_s":   float64(last.Total.Instructions) / runSec / 1e6,
		"sweep_points_s": float64(n) / runSec,
		"jobs_s":         float64(n) / runSec,
		"job_p50_ms":     quantile(lat, 0.5),
		"job_p99_ms":     quantile(lat, 0.99),
		"setup_s":        median(setups),
		"heap_mb":        heap,
	}
	if tr != nil {
		res.layer = cmp4Layers(tr, last, last.OffChip-offChip0, float64(runNs))
		overhead, err := traceOverhead(cfg.seed, tr, wrap)
		if err != nil {
			return nil, err
		}
		res.layer["bench.trace_overhead"] = overhead
	}
	return res, nil
}

// traceOverhead measures what tracing costs the simulator: an untraced
// and a traced machine, warmed alike, step through the same slices in
// alternation, so host drift hits both alike. The result is traced
// speed over untraced speed.
func traceOverhead(seed uint64, tr *tracer, wrap wrapScheme) (float64, error) {
	var machines [2]*cmp.System
	for i, t := range []*tracer{nil, tr} {
		w := wrap
		if t == nil {
			w = nil
		}
		sys, err := warmCMP4(seed, t, w)
		if err != nil {
			return 0, err
		}
		machines[i] = sys
	}
	var took [2]time.Duration
	for r := 0; r < cmp4OverheadRounds; r++ {
		for k := 0; k < 2; k++ {
			i := (r + k) % 2 // alternate which machine goes first
			t0 := time.Now()
			for s := 0; s < cmp4OverheadSlices; s++ {
				machines[i].Run(cmp4SlicePerCore)
			}
			took[i] += time.Since(t0)
		}
	}
	return float64(took[0]) / float64(took[1]), nil
}

// cmp4Layers derives the per-layer metrics of a traced pass: host time
// split between the workload, the prefetch scheme and everything else
// System.Run does (cmp, cpu, core, cache, tlb, bpred and memory), and
// the window's simulated counts.
func cmp4Layers(tr *tracer, last cmp4Slice, offChip uint64, runNs float64) map[string]float64 {
	t := last.Total
	instr := float64(t.Instructions)
	pki := func(n uint64) float64 { return float64(n) / instr * 1000 }

	_, nextNs, wlNs := tr.callTotals(statWorkloadNext)
	var pfNs float64
	means := map[string]float64{}
	for _, name := range prefetchStats {
		_, mean, total := tr.callTotals(name)
		means[name] = mean
		pfNs += total
	}
	selfNs := runNs - wlNs - pfNs
	accuracy := 0.0
	if t.Prefetch.Issued > 0 {
		accuracy = float64(t.Prefetch.Useful) / float64(t.Prefetch.Issued)
	}
	return map[string]float64{
		"workload.next_ns":            nextNs,
		"workload.share":              wlNs / runNs,
		"prefetch.onfetch_ns":         means[statOnFetch],
		"prefetch.ondiscontinuity_ns": means[statOnDisc],
		"prefetch.share":              pfNs / runNs,
		"cmp.self_ns_per_instr":       selfNs / instr,
		"cmp.ns_per_l1i_access":       selfNs / float64(t.L1I.Accesses),
		"cache.l1i_mpki":              pki(t.L1I.Misses),
		"cache.l2i_mpki":              pki(t.L2I.Misses),
		"cache.l1d_mpki":              pki(t.L1D.Misses),
		"prefetch.candidates_pki":     pki(t.Prefetch.Generated),
		"core.filtered_recent_pki":    pki(t.Prefetch.FilteredRecent),
		"core.filtered_dup_pki":       pki(t.Prefetch.FilteredDup),
		"core.dropped_overflow_pki":   pki(t.Prefetch.DroppedOverflow),
		"prefetch.issued_pki":         pki(t.Prefetch.Issued),
		"prefetch.accuracy":           accuracy,
		"bpred.mispredict_pki":        pki(t.BranchMispredicts),
		"memory.offchip_pki":          pki(offChip),
		"cpu.ipc":                     t.IPC(),
		"cpu.fetch_stall_cpi":         float64(t.FetchStallCycles) / instr,
	}
}
