// Package sim contains the experiment layer: run specifications, a
// memoising engine, and one runner per figure of the paper's evaluation
// (Figures 1–10), each producing paper-style tables.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/cmp"
	"repro/internal/codesign"
	"repro/internal/foundry"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Workload identifies one column of the paper's charts: a homogeneous
// application or the multiprogrammed Mix.
type Workload struct {
	// Name is the display name ("DB", ..., "Mixed").
	Name string
	// Apps lists the applications, cycled across cores.
	Apps []string
}

// PaperWorkloads returns the chart columns: the four applications and,
// when cmp is true, the Mixed workload (which only exists on the CMP).
func PaperWorkloads(cmpMachine bool) []Workload {
	ws := []Workload{
		{Name: "DB", Apps: []string{"DB"}},
		{Name: "TPC-W", Apps: []string{"TPC-W"}},
		{Name: "jApp", Apps: []string{"jApp"}},
		{Name: "Web", Apps: []string{"Web"}},
	}
	if cmpMachine {
		ws = append(ws, Workload{Name: "Mixed", Apps: []string{"DB", "TPC-W", "jApp", "Web"}})
	}
	return ws
}

// WorkloadByName resolves a paper workload name case-insensitively
// ("DB", "TPC-W", "jApp", "Web", and — when cmpMachine — "Mixed").
// Names of the form "trace:<id>" resolve to a recorded-trace replay of
// the corpus entry with that content hash; whether the id actually
// exists is checked when sources are built (cmp.SourcesFor), since
// workers may still need to fetch it. Foundry profile names
// ("Microservice", "Serverless") and adversarial generator names
// ("adv:<scheme>@<seed>[x<iters>]") resolve to homogeneous workloads of
// that profile.
func WorkloadByName(name string, cmpMachine bool) (Workload, bool) {
	if id, ok := strings.CutPrefix(name, cmp.TraceWorkloadPrefix); ok && id != "" {
		return Workload{Name: name, Apps: []string{name}}, true
	}
	if strings.HasPrefix(name, foundry.Prefix) {
		if _, err := foundry.ParseName(name); err != nil {
			return Workload{}, false
		}
		return Workload{Name: name, Apps: []string{name}}, true
	}
	for _, w := range PaperWorkloads(cmpMachine) {
		if strings.EqualFold(w.Name, name) {
			return w, true
		}
	}
	for _, n := range workload.FoundryProfileNames() {
		if strings.EqualFold(n, name) {
			return Workload{Name: n, Apps: []string{n}}, true
		}
	}
	return Workload{}, false
}

// RunSpec describes one simulation run: the machine, the workload, the
// prefetch scheme and the instruction budgets. The zero value is not
// runnable; zero budgets take the engine's (see Engine.Resolve).
type RunSpec struct {
	Workload Workload
	Cores    int
	// Scheme is the prefetcher registry name ("none", "nl-miss", ...).
	Scheme string
	// Bypass enables the Section 7 L2-bypass install policy.
	Bypass bool
	// Oracle eliminates miss super-categories (Figure 4).
	Oracle [isa.NumSuperCategories]bool
	// L1I/L2 override the default geometries when non-zero.
	L1I cache.Config
	L2  cache.Config
	// TableEntries overrides the discontinuity table size when > 0
	// (Figure 10); only meaningful with Scheme "discontinuity".
	TableEntries int
	// PrefetchAhead overrides the discontinuity prefetch-ahead distance
	// when > 0 (ablation A3).
	PrefetchAhead int
	// NoCounter disables the discontinuity table's eviction counter
	// (ablation A1).
	NoCounter bool
	// NoRecentFilter disables the recent-demand filter (ablation A2).
	NoRecentFilter bool
	// QueueFIFO issues prefetches oldest-first (ablation A4).
	QueueFIFO bool
	// L2UsefulnessFilter enables the Luk & Mowry re-prefetch filter
	// (ablation A6).
	L2UsefulnessFilter bool
	// ConfidenceFilter enables the Haga et al. confidence filter on the
	// discontinuity table and disables prefetch tag probes (ablation A7).
	ConfidenceFilter bool
	// OffChipGBps overrides the off-chip bandwidth when > 0 (ablation
	// A8; defaults are 10 GB/s single-core, 20 GB/s CMP).
	OffChipGBps float64
	// L1IPolicy overrides the L1-I replacement policy (ablation A9).
	L1IPolicy cache.Policy
	// ModelWritebacks enables dirty write-back traffic (ablation A10).
	ModelWritebacks bool
	// InsertPolicy selects the recency depth for prefetched-line
	// insertion in L1-I and L2 ("", "mru", "mid", "lru"); see
	// codesign.ParseInsertion. Empty/default keeps the historical MRU
	// behaviour (and the historical memo key).
	InsertPolicy string
	// TLBFill enables prefetch-triggered I-TLB fill ("", "none",
	// "primary", "secondary"); see codesign.ParseTLBFill.
	TLBFill string
	// WrongPath enables wrong-path fetch modelling ("", "off",
	// "train[:depth]", "pollute[:depth]"); see codesign.ParseWrongPath.
	WrongPath string
	// ForkWarm selects the fork-and-diverge methodology: the warm-up
	// phase runs on a scheme-neutral machine (Scheme "none", no table
	// overrides) and the measurement machine starts from a snapshot of
	// its warmed state, with the scheme under test cold. Specs sharing a
	// warm key (see WarmKey) can then share one warm-up via
	// RunBatchContext. A ForkWarm run is a different methodology from
	// the default two-phase run, so it memoises under a distinct key.
	ForkWarm bool

	// WarmInstrs and MeasureInstrs are per-core instruction budgets, and
	// Seed drives all workload streams; zero takes the engine's value.
	// They name a result as much as the machine does, so Key covers
	// them; a Result's JSON leaves them out, so stored results,
	// journals and artifacts keep their on-disk format.
	WarmInstrs    uint64 `json:"-"`
	MeasureInstrs uint64 `json:"-"`
	Seed          uint64 `json:"-"`
}

// Key returns the run's identity: every field that affects the
// simulation, budgets included. Call it on a resolved spec (see
// Engine.Resolve). The engine memoises and deduplicates on it, the
// service addresses its result store by it and sweeps journal by it.
func (s RunSpec) Key() string { return s.key() + s.BudgetKey() }

// BudgetKey is the budget part of Key. sweep.Spec.ID appends it to a
// sweep's canonical JSON, so both identities spell budgets one way.
func (s RunSpec) BudgetKey() string {
	return fmt.Sprintf("|warm=%d|measure=%d|seed=%d", s.WarmInstrs, s.MeasureInstrs, s.Seed)
}

// key covers every field of the machine, workload and scheme; Key adds
// the budgets.
func (s RunSpec) key() string {
	k := fmt.Sprintf("%s|%d|%s|%v|%v|%+v|%+v|%d|%d|%v|%v|%v|%v",
		s.Workload.Name, s.Cores, s.Scheme, s.Bypass, s.Oracle, s.L1I, s.L2,
		s.TableEntries, s.PrefetchAhead, s.NoCounter, s.NoRecentFilter, s.QueueFIFO,
		s.L2UsefulnessFilter) + fmt.Sprintf("|%v|%g|%d|%v", s.ConfidenceFilter, s.OffChipGBps,
		s.L1IPolicy, s.ModelWritebacks)
	// Co-design axes extend the key only when set, so default-policy
	// keys (and the journals/result stores derived from them) are
	// byte-identical to builds that predate these fields.
	if s.InsertPolicy != "" || s.TLBFill != "" || s.WrongPath != "" {
		k += fmt.Sprintf("|ins=%s|tlb=%s|wp=%s", s.InsertPolicy, s.TLBFill, s.WrongPath)
	}
	// Like the co-design axes, ForkWarm extends the key only when set, so
	// default-methodology keys stay byte-identical to historical ones.
	if s.ForkWarm {
		k += "|fork"
	}
	return k
}

// warmSpec derives the scheme-neutral warm-up spec for a fork-and-
// diverge run: the machine (workload, cores, geometries, policies)
// stays as specified, while the prefetch scheme and its table/filter
// knobs are neutralised so every member of a warm group builds the
// identical warm machine. ConfidenceFilter is neutralised too — it
// forces a discontinuity prefetcher override even under Scheme "none".
// The measure budget does not touch the warm phase, so it is dropped.
func (s RunSpec) warmSpec() RunSpec {
	w := s
	w.Scheme = "none"
	w.TableEntries = 0
	w.PrefetchAhead = 0
	w.NoCounter = false
	w.NoRecentFilter = false
	w.QueueFIFO = false
	w.ConfidenceFilter = false
	w.ForkWarm = false
	w.MeasureInstrs = 0
	return w
}

// WarmKey identifies the shared warm-up phase of a ForkWarm spec: specs
// with equal warm keys warm identical machines, so RunBatchContext runs
// that warm phase once and forks its snapshot across the group.
func (s RunSpec) WarmKey() string { return s.warmSpec().Key() }

// Result carries everything the figures report from one run.
type Result struct {
	Spec    RunSpec
	Total   stats.CoreStats
	PerCore []stats.CoreStats
	// L2InstrOccupancy is the fraction of valid L2 lines holding
	// instructions at the end of the run (pollution diagnostics).
	L2InstrOccupancy float64
	// OffChipTransfers counts line transfers over the off-chip link
	// (lifetime, including warm-up).
	OffChipTransfers uint64
	// Writebacks counts dirty write-back transfers (lifetime; zero
	// unless ModelWritebacks).
	Writebacks uint64
}

// memoCap bounds the engine's result memo at three times the 341
// figure and ablation runs, so a whole regeneration stays resident
// while a long-lived daemon's memo stops growing.
const memoCap = 1024

// Engine runs simulations and memoises results, since several figures
// share runs (e.g. the no-prefetch baseline appears in Figures 5–9).
// One engine serves runs of any budgets: they are part of the spec.
// The memo holds the latest memoCap results.
type Engine struct {
	// WarmInstrs, MeasureInstrs and Seed are the defaults for specs
	// that leave their budgets zero (see Resolve).
	WarmInstrs    uint64
	MeasureInstrs uint64
	Seed          uint64
	// Verbose, when non-nil, receives a line per completed run.
	Verbose func(string)

	mu       sync.Mutex
	memo     map[string]Result
	memoFIFO []string // memo keys, oldest first
	memoCap  int      // memoCap; tests lower it
	inflight map[string]*inflightRun
	counters Counters
}

// inflightRun is the singleflight slot for one spec key: the first
// caller simulates, later callers wait on done and share the outcome.
type inflightRun struct {
	done chan struct{}
	res  Result
	err  error
}

// Counters exposes the engine's run-sharing behaviour for metrics:
// every Run resolves as exactly one of a fresh simulation, a memo hit,
// or a wait on an identical in-flight simulation.
type Counters struct {
	// Simulations counts actual simulation executions.
	Simulations uint64
	// MemoHits counts runs answered from the in-memory result cache.
	MemoHits uint64
	// DedupWaits counts runs that joined an identical in-flight
	// simulation instead of starting their own.
	DedupWaits uint64
	// MemoEntries is the number of results the memo holds.
	MemoEntries uint64
}

// Counters returns a snapshot of the engine's run-sharing counters.
func (e *Engine) Counters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.counters
	c.MemoEntries = uint64(len(e.memo))
	return c
}

// Resolve returns spec with its zero budgets set to the engine's
// defaults. Every run resolves first, so a spec that leaves a budget
// zero and one that names the default share a key and a result.
func (e *Engine) Resolve(spec RunSpec) RunSpec {
	if spec.WarmInstrs == 0 {
		spec.WarmInstrs = e.WarmInstrs
	}
	if spec.MeasureInstrs == 0 {
		spec.MeasureInstrs = e.MeasureInstrs
	}
	if spec.Seed == 0 {
		spec.Seed = e.Seed
	}
	return spec
}

// NewEngine returns an engine with the given default per-core budgets.
func NewEngine(warm, measure uint64, seed uint64) *Engine {
	return &Engine{
		WarmInstrs:    warm,
		MeasureInstrs: measure,
		Seed:          seed,
		memo:          make(map[string]Result),
		memoCap:       memoCap,
		inflight:      make(map[string]*inflightRun),
	}
}

// DefaultEngine returns an engine sized for interactive use: large
// enough for stable shapes, small enough to run all figures in minutes.
func DefaultEngine() *Engine {
	return NewEngine(1_500_000, 3_000_000, 1)
}

// Run executes (or recalls) the simulation described by spec.
// Individual simulations are single-threaded and deterministic;
// concurrent Run calls are safe, and identical concurrent specs share
// one simulation (see RunContext).
func (e *Engine) Run(spec RunSpec) (Result, error) {
	return e.RunContext(context.Background(), spec)
}

// RunContext is Run with cancellation: the simulation stops early and
// returns ctx.Err() when ctx fires. Concurrent calls with the same spec
// are deduplicated: one caller simulates, the rest wait for its result
// (or their own ctx, whichever comes first). A run abandoned because
// the simulating caller's ctx fired is not memoised, so a later call
// retries from scratch.
func (e *Engine) RunContext(ctx context.Context, spec RunSpec) (Result, error) {
	spec = e.Resolve(spec)
	return e.runShared(ctx, spec, func(ctx context.Context) (Result, error) {
		return e.simulate(ctx, spec)
	})
}

// runShared looks a resolved spec up in the memo and singleflight layers:
// a cached result is returned immediately; a caller that finds an
// identical spec in flight waits for it; otherwise the caller becomes
// the leader and executes simFn. Waiters that see the leader abandon
// the run because the LEADER's context fired — not their own — loop
// back and retry (re-checking memo/inflight, possibly becoming the new
// leader) instead of inheriting a cancellation that was never theirs.
func (e *Engine) runShared(ctx context.Context, spec RunSpec, simFn func(context.Context) (Result, error)) (Result, error) {
	key := spec.Key()
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		e.mu.Lock()
		if r, ok := e.memo[key]; ok {
			e.counters.MemoHits++
			e.mu.Unlock()
			return r, nil
		}
		if fl, ok := e.inflight[key]; ok {
			e.counters.DedupWaits++
			e.mu.Unlock()
			select {
			case <-fl.done:
				if (errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded)) && ctx.Err() == nil {
					// The leader was cancelled but this waiter wasn't:
					// the leader has already removed the inflight entry,
					// so retry (and possibly lead) rather than fail.
					continue
				}
				return fl.res, fl.err
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
		}
		fl := &inflightRun{done: make(chan struct{})}
		e.inflight[key] = fl
		e.counters.Simulations++
		e.mu.Unlock()

		res, err := simFn(ctx)

		e.mu.Lock()
		if err == nil {
			e.remember(key, res)
		}
		delete(e.inflight, key)
		e.mu.Unlock()
		fl.res, fl.err = res, err
		close(fl.done)
		if err == nil && e.Verbose != nil {
			e.Verbose(fmt.Sprintf("ran %-6s cores=%d scheme=%-14s bypass=%-5v IPC=%.3f L1I=%.3f%%",
				spec.Workload.Name, spec.Cores, spec.Scheme, spec.Bypass,
				res.Total.IPC(), 100*res.Total.L1I.PerInstr(res.Total.Instructions)))
		}
		return res, err
	}
}

// remember memoises a result, evicting the oldest once the memo holds
// memoCap. Singleflight leaves one leader per key, so key is new.
// Caller holds e.mu.
func (e *Engine) remember(key string, res Result) {
	if len(e.memoFIFO) >= e.memoCap {
		delete(e.memo, e.memoFIFO[0])
		e.memoFIFO = e.memoFIFO[1:]
	}
	e.memo[key] = res
	e.memoFIFO = append(e.memoFIFO, key)
}

// simulate executes spec's warm + measure phases under ctx, selecting
// the methodology: the default path warms and measures one machine; the
// ForkWarm path warms a scheme-neutral machine and measures from a
// restored snapshot of it.
func (e *Engine) simulate(ctx context.Context, spec RunSpec) (Result, error) {
	if spec.ForkWarm {
		return e.simulateForked(ctx, spec)
	}
	sys, err := e.buildSystem(spec)
	if err != nil {
		return Result{}, err
	}
	if err := sys.RunContext(ctx, spec.WarmInstrs); err != nil {
		return Result{}, err
	}
	sys.ResetStats()
	if err := sys.RunContext(ctx, spec.MeasureInstrs); err != nil {
		return Result{}, err
	}
	sys.Finalize()
	return collect(sys, spec), nil
}

// simulateForked is the fork-and-diverge methodology for a single spec:
// warm the scheme-neutral machine, snapshot, measure from the restored
// snapshot. RunBatchContext shares the first two steps across specs
// with equal warm keys; run solo the methodology (and therefore the
// result) is identical, just without the sharing.
func (e *Engine) simulateForked(ctx context.Context, spec RunSpec) (Result, error) {
	snap, err := e.warmSnapshot(ctx, spec.warmSpec())
	if err != nil {
		return Result{}, err
	}
	return e.measureFrom(ctx, spec, snap)
}

// warmSnapshot builds the machine for the (already scheme-neutral) warm
// spec, runs the warm phase, and captures the machine state.
func (e *Engine) warmSnapshot(ctx context.Context, warm RunSpec) (*cmp.Snapshot, error) {
	sys, err := e.buildSystem(warm)
	if err != nil {
		return nil, err
	}
	if err := sys.RunContext(ctx, warm.WarmInstrs); err != nil {
		return nil, err
	}
	return sys.Snapshot()
}

// measureFrom builds spec's full-configuration machine, restores the
// shared warm snapshot into it (the scheme under test starts cold —
// the snapshot's scheme is "none"), and runs the measurement phase.
func (e *Engine) measureFrom(ctx context.Context, spec RunSpec, snap *cmp.Snapshot) (Result, error) {
	sys, err := e.buildSystem(spec)
	if err != nil {
		return Result{}, err
	}
	if err := sys.Restore(snap); err != nil {
		return Result{}, err
	}
	sys.ResetStats()
	if err := sys.RunContext(ctx, spec.MeasureInstrs); err != nil {
		return Result{}, err
	}
	sys.Finalize()
	return collect(sys, spec), nil
}

// collect gathers a finalized machine's statistics into a Result.
func collect(sys *cmp.System, spec RunSpec) Result {
	res := Result{
		Spec:             spec,
		Total:            sys.TotalStats(),
		L2InstrOccupancy: sys.Mem().InstrOccupancy(),
		OffChipTransfers: sys.Mem().Port().Transfers(),
		Writebacks:       sys.Mem().Writebacks(),
	}
	for i := 0; i < spec.Cores; i++ {
		res.PerCore = append(res.PerCore, *sys.CoreStats(i))
	}
	return res
}

// buildSystem translates spec into a machine configuration and
// constructs the system (no simulation phases are run).
func (e *Engine) buildSystem(spec RunSpec) (*cmp.System, error) {
	cfg := cmp.DefaultConfig(spec.Cores)
	cfg.PrefetcherName = spec.Scheme
	cfg.FrontEnd.BypassL2 = spec.Bypass
	cfg.FrontEnd.Oracle = spec.Oracle
	if spec.L1I.SizeBytes > 0 {
		cfg.FrontEnd.L1I = spec.L1I
	}
	if spec.L2.SizeBytes > 0 {
		cfg.Mem.L2 = spec.L2
	}
	// The memory system is line-addressed, so a non-default line size in
	// either override is applied hierarchy-wide (L1-I, L1-D, L2, off-chip
	// unit) — resolved after BOTH overrides so an L2 override cannot
	// clobber an L1-I line-size propagation, and an L2-only line size
	// propagates at all. Overrides that disagree are rejected rather
	// than silently mismatched.
	l1lb, l2lb := cfg.FrontEnd.L1I.LineBytes, cfg.Mem.L2.LineBytes
	switch {
	case spec.L1I.SizeBytes > 0 && spec.L2.SizeBytes > 0 && l1lb != l2lb:
		return nil, fmt.Errorf("sim: inconsistent line sizes: L1I override %d B vs L2 override %d B", l1lb, l2lb)
	case spec.L1I.SizeBytes > 0:
		// Overridden (and, if both were set, agreeing) L1I line size
		// rules every level, including the non-overridden ones.
		cfg.Core.L1D.LineBytes = l1lb
		cfg.Mem.L2.LineBytes = l1lb
		cfg.Mem.Port.LineBytes = l1lb
	case spec.L2.SizeBytes > 0:
		cfg.FrontEnd.L1I.LineBytes = l2lb
		cfg.Core.L1D.LineBytes = l2lb
		cfg.Mem.Port.LineBytes = l2lb
	}

	cfg.FrontEnd.NoRecentFilter = spec.NoRecentFilter
	cfg.FrontEnd.QueueFIFO = spec.QueueFIFO
	cfg.FrontEnd.L2UsefulnessFilter = spec.L2UsefulnessFilter
	cfg.FrontEnd.NoTagProbe = spec.ConfidenceFilter
	if spec.OffChipGBps > 0 {
		cfg.Mem.Port.BytesPerCycle = spec.OffChipGBps * 1e9 / 3e9
	}
	if spec.L1IPolicy != cache.LRU {
		cfg.FrontEnd.L1I.Policy = spec.L1IPolicy
	}
	cfg.ModelWritebacks = spec.ModelWritebacks

	ins, err := codesign.ParseInsertion(spec.InsertPolicy)
	if err != nil {
		return nil, err
	}
	cfg.FrontEnd.PrefetchInsert = ins
	cfg.Mem.PrefetchInsert = ins
	tf, err := codesign.ParseTLBFill(spec.TLBFill)
	if err != nil {
		return nil, err
	}
	cfg.FrontEnd.TLBFill = tf
	wp, err := codesign.ParseWrongPath(spec.WrongPath)
	if err != nil {
		return nil, err
	}
	cfg.FrontEnd.WrongPath = wp

	var override func(int) prefetch.Prefetcher
	if spec.TableEntries > 0 || spec.PrefetchAhead > 0 || spec.NoCounter || spec.ConfidenceFilter {
		dcfg := prefetch.DefaultDiscontinuityConfig()
		if spec.TableEntries > 0 {
			dcfg.TableEntries = spec.TableEntries
		}
		if spec.PrefetchAhead > 0 {
			dcfg.PrefetchAhead = spec.PrefetchAhead
		}
		dcfg.NoCounter = spec.NoCounter
		dcfg.ConfidenceFilter = spec.ConfidenceFilter
		override = func(int) prefetch.Prefetcher { return prefetch.NewDiscontinuity(dcfg) }
	}

	srcs, err := cmp.SourcesFor(spec.Workload.Apps, spec.Cores, spec.Seed)
	if err != nil {
		return nil, err
	}
	return cmp.New(cfg, srcs, override)
}

// MustRun is Run that panics on error (experiment code uses literal,
// known-good specs).
func (e *Engine) MustRun(spec RunSpec) Result {
	r, err := e.Run(spec)
	if err != nil {
		panic(err)
	}
	return r
}

// figureAbort carries a RunContext error (cancellation or a bad spec)
// out of a figure body; catch converts it back into an error return.
type figureAbort struct{ err error }

// catch recovers a figureAbort raised by mustRun inside a figure body
// and stores its error in *err. Deferred by every planned runner.
func catch(err *error) {
	if p := recover(); p != nil {
		if a, ok := p.(figureAbort); ok {
			*err = a.err
			return
		}
		panic(p)
	}
}

// planKey is the context key of a figure body's planning pass: under
// it mustRun appends each spec to the stored *[]RunSpec and returns a
// zero Result instead of running it.
type planKey struct{}

// mustRun is the ctx-aware MustRun used inside figure bodies: instead
// of returning an error at every call site it panics with figureAbort,
// which the runner's deferred catch turns into an error return.
func (e *Engine) mustRun(ctx context.Context, spec RunSpec) Result {
	if plan, ok := ctx.Value(planKey{}).(*[]RunSpec); ok {
		*plan = append(*plan, spec)
		return Result{}
	}
	r, err := e.RunContext(ctx, spec)
	if err != nil {
		panic(figureAbort{err})
	}
	return r
}

// planned returns the runner for a figure body, which plans, then
// batches: a planning pass of the body records the specs it asks for,
// RunBatchContext runs them (deduplicated by key) concurrently, and a
// second pass builds the tables from the memo. So a body is the only
// place that names its runs, and its tables do not depend on the order
// runs finish in.
func (e *Engine) planned(id, name string, body func(context.Context) []*stats.Table) Runner {
	return Runner{ID: id, Name: name, Run: func(ctx context.Context) (tables []*stats.Table, err error) {
		defer catch(&err)
		var specs []RunSpec
		body(context.WithValue(ctx, planKey{}, &specs))
		seen := make(map[string]bool, len(specs))
		batch := specs[:0]
		for _, s := range specs {
			if k := e.Resolve(s).Key(); !seen[k] {
				seen[k] = true
				batch = append(batch, s)
			}
		}
		if err := e.RunBatchContext(ctx, batch, 0, nil); err != nil {
			return nil, err
		}
		return body(ctx), nil
	}}
}

// RunBatchContext executes specs concurrently (bounded by workers;
// workers < 1 means GOMAXPROCS), sharing warm-up work among ForkWarm
// specs: specs with equal warm keys form a group whose scheme-neutral
// warm phase runs ONCE, is snapshotted, and seeds every member's
// measurement machine via restore. Non-ForkWarm specs (and memoised
// members) resolve through the ordinary RunContext path. Each spec's
// zero budgets take the engine's (see Resolve). onResult, when
// non-nil, receives every spec's outcome as it completes, identified by
// its index into specs; it must be safe for concurrent calls. The
// returned error is the first failure (results already delivered stand).
func (e *Engine) RunBatchContext(ctx context.Context, specs []RunSpec, workers int, onResult func(i int, res Result, err error, elapsed time.Duration)) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	resolved := make([]RunSpec, len(specs))
	for i, s := range specs {
		resolved[i] = e.Resolve(s)
	}
	specs = resolved
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	emit := func(i int, res Result, err error, elapsed time.Duration) {
		mu.Lock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		if onResult != nil {
			onResult(i, res, err, elapsed)
		}
	}
	// runSolo resolves one spec through RunContext under a worker slot.
	runSolo := func(i int) {
		defer wg.Done()
		sem <- struct{}{}
		defer func() { <-sem }()
		start := time.Now()
		res, err := e.RunContext(ctx, specs[i])
		emit(i, res, err, time.Since(start))
	}

	groups := make(map[string][]int)
	for i, s := range specs {
		if !s.ForkWarm {
			wg.Add(1)
			go runSolo(i)
			continue
		}
		k := s.WarmKey()
		groups[k] = append(groups[k], i)
	}

	// Group goroutines are lightweight coordinators and do NOT hold
	// worker slots; only warm phases and member measurements acquire
	// them. (A coordinator holding a slot while its members wait for
	// slots would deadlock at workers=1.)
	for _, members := range groups {
		wg.Add(1)
		go func(members []int) {
			defer wg.Done()
			// Members already memoised need no warm machine; resolve
			// them through the cache and only warm for the rest.
			var todo []int
			for _, i := range members {
				e.mu.Lock()
				_, hit := e.memo[specs[i].Key()]
				e.mu.Unlock()
				if hit {
					wg.Add(1)
					go runSolo(i)
					continue
				}
				todo = append(todo, i)
			}
			if len(todo) == 0 {
				return
			}
			warm := specs[todo[0]].warmSpec()
			sem <- struct{}{}
			warmStart := time.Now()
			e.mu.Lock()
			e.counters.Simulations++
			e.mu.Unlock()
			snap, err := e.warmSnapshot(ctx, warm)
			warmElapsed := time.Since(warmStart)
			<-sem
			if err != nil {
				for _, i := range todo {
					emit(i, Result{}, err, warmElapsed)
				}
				return
			}
			for _, i := range todo {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					start := time.Now()
					res, err := e.runShared(ctx, specs[i], func(ctx context.Context) (Result, error) {
						return e.measureFrom(ctx, specs[i], snap)
					})
					emit(i, res, err, time.Since(start))
				}(i)
			}
		}(members)
	}
	wg.Wait()
	return firstErr
}

// baseline returns the no-prefetch run for a workload/machine.
func (e *Engine) baseline(ctx context.Context, w Workload, cores int) Result {
	return e.mustRun(ctx, RunSpec{Workload: w, Cores: cores, Scheme: "none"})
}

// pct formats a ratio as a percentage cell.
func pct(f float64, decimals int) string { return stats.Pct(f, decimals) }

// ratio formats an "X" speedup cell.
func ratio(f float64) string { return fmt.Sprintf("%.3fX", f) }
