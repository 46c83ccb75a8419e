package sim

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/stats"
)

// smallEngine keeps experiment tests fast; shapes at this scale are
// noisier than the defaults but the structural assertions below hold.
func smallEngine() *Engine {
	return NewEngine(150_000, 300_000, 1)
}

// figureEngine is one smallEngine shared by the figure and ablation
// tests: ablations reuse the figure baselines, so its memo serves them.
var figureEngine = sync.OnceValue(smallEngine)

func TestEngineMemoisation(t *testing.T) {
	e := smallEngine()
	runs := 0
	e.Verbose = func(string) { runs++ }
	spec := RunSpec{Workload: Workload{Name: "Web", Apps: []string{"Web"}}, Cores: 1, Scheme: "none"}
	r1 := e.MustRun(spec)
	r2 := e.MustRun(spec)
	if runs != 1 {
		t.Fatalf("memoisation failed: %d runs", runs)
	}
	if r1.Total.Cycles != r2.Total.Cycles {
		t.Fatal("memoised result differs")
	}
}

func TestEngineDistinctSpecsDistinctRuns(t *testing.T) {
	e := smallEngine()
	w := Workload{Name: "Web", Apps: []string{"Web"}}
	a := e.MustRun(RunSpec{Workload: w, Cores: 1, Scheme: "none"})
	b := e.MustRun(RunSpec{Workload: w, Cores: 1, Scheme: "n4l-tagged"})
	if a.Total.L1I.Misses == b.Total.L1I.Misses {
		t.Fatal("different schemes produced identical miss counts")
	}
}

func TestEngineRejectsUnknownScheme(t *testing.T) {
	e := smallEngine()
	_, err := e.Run(RunSpec{Workload: Workload{Name: "Web", Apps: []string{"Web"}}, Cores: 1, Scheme: "zzz"})
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestEngineRejectsUnknownApp(t *testing.T) {
	e := smallEngine()
	_, err := e.Run(RunSpec{Workload: Workload{Name: "X", Apps: []string{"X"}}, Cores: 1, Scheme: "none"})
	if err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestPaperWorkloads(t *testing.T) {
	single := PaperWorkloads(false)
	if len(single) != 4 {
		t.Fatalf("single-core workloads = %d", len(single))
	}
	cmpW := PaperWorkloads(true)
	if len(cmpW) != 5 || cmpW[4].Name != "Mixed" || len(cmpW[4].Apps) != 4 {
		t.Fatalf("CMP workloads = %+v", cmpW)
	}
}

func TestLineSizeOverridePropagates(t *testing.T) {
	e := smallEngine()
	w := Workload{Name: "Web", Apps: []string{"Web"}}
	r := e.MustRun(RunSpec{Workload: w, Cores: 1, Scheme: "none",
		L1I: cache.Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 128}})
	// Smoke: the run completes and reports sane metrics; line-size
	// mismatch between levels would corrupt line numbering and show up
	// as absurd miss ratios.
	ratio := r.Total.L1I.MissRatio()
	if ratio <= 0 || ratio > 0.5 {
		t.Fatalf("L1I miss ratio with 128B lines = %v", ratio)
	}
}

func TestOracleSpeedsUp(t *testing.T) {
	e := smallEngine()
	w := Workload{Name: "jApp", Apps: []string{"jApp"}}
	base := e.MustRun(RunSpec{Workload: w, Cores: 1, Scheme: "none"})
	var oracle [isa.NumSuperCategories]bool
	oracle[isa.SuperSequential] = true
	oracle[isa.SuperBranch] = true
	oracle[isa.SuperFunction] = true
	all := e.MustRun(RunSpec{Workload: w, Cores: 1, Scheme: "none", Oracle: oracle})
	if all.Total.IPC() <= base.Total.IPC()*1.05 {
		t.Fatalf("oracle gained only %vx", all.Total.IPC()/base.Total.IPC())
	}
}

func TestPrefetchBeatsBaseline(t *testing.T) {
	e := smallEngine()
	w := Workload{Name: "DB", Apps: []string{"DB"}}
	base := e.MustRun(RunSpec{Workload: w, Cores: 1, Scheme: "none"})
	disc := e.MustRun(RunSpec{Workload: w, Cores: 1, Scheme: "discontinuity", Bypass: true})
	if disc.Total.L1I.Misses >= base.Total.L1I.Misses {
		t.Fatal("discontinuity did not reduce L1I misses")
	}
	if disc.Total.IPC() <= base.Total.IPC() {
		t.Fatal("discontinuity did not improve IPC")
	}
}

func TestFigureRunnersProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	e := figureEngine()
	for _, fig := range e.Figures() {
		tables, err := fig.Run(context.Background())
		if err != nil {
			t.Fatalf("figure %s: %v", fig.ID, err)
		}
		if len(tables) == 0 {
			t.Fatalf("figure %s produced no tables", fig.ID)
		}
		for _, tb := range tables {
			out := tb.String()
			if !strings.Contains(out, "DB") {
				t.Fatalf("figure %s table missing workload columns:\n%s", fig.ID, out)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("figure %s produced an empty table", fig.ID)
			}
			for _, row := range tb.Rows {
				for _, cell := range row {
					if cell == "NaN" || strings.Contains(cell, "Inf") {
						t.Fatalf("figure %s has non-finite cell %q", fig.ID, cell)
					}
				}
			}
		}
	}
}

func TestAblationRunnersProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation runs are slow")
	}
	e := figureEngine()
	for _, abl := range e.Ablations() {
		tables, err := abl.Run(context.Background())
		if err != nil {
			t.Fatalf("ablation %s: %v", abl.ID, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Fatalf("ablation %s empty", abl.ID)
		}
	}
}

func TestRunSpecKeyDistinguishesFields(t *testing.T) {
	w := Workload{Name: "DB", Apps: []string{"DB"}}
	base := RunSpec{Workload: w, Cores: 1, Scheme: "none"}
	variants := []RunSpec{
		{Workload: Workload{Name: "Web", Apps: []string{"Web"}}, Cores: 1, Scheme: "none"},
		{Workload: w, Cores: 4, Scheme: "none"},
		{Workload: w, Cores: 1, Scheme: "nl-miss"},
		{Workload: w, Cores: 1, Scheme: "none", Bypass: true},
		{Workload: w, Cores: 1, Scheme: "none", TableEntries: 256},
		{Workload: w, Cores: 1, Scheme: "none", PrefetchAhead: 2},
		{Workload: w, Cores: 1, Scheme: "none", NoCounter: true},
		{Workload: w, Cores: 1, Scheme: "none", NoRecentFilter: true},
		{Workload: w, Cores: 1, Scheme: "none", QueueFIFO: true},
		{Workload: w, Cores: 1, Scheme: "none", L2: cache.Config{SizeBytes: 1 << 20, Assoc: 4, LineBytes: 64}},
	}
	seen := map[string]bool{base.key(): true}
	for i, v := range variants {
		k := v.key()
		if seen[k] {
			t.Fatalf("variant %d collides with an earlier key", i)
		}
		seen[k] = true
	}
	var oracle [isa.NumSuperCategories]bool
	oracle[isa.SuperBranch] = true
	if (RunSpec{Workload: w, Cores: 1, Scheme: "none", Oracle: oracle}).key() == base.key() {
		t.Fatal("oracle not in key")
	}
}

func TestWarmConcurrent(t *testing.T) {
	e := smallEngine()
	w1 := Workload{Name: "Web", Apps: []string{"Web"}}
	w2 := Workload{Name: "DB", Apps: []string{"DB"}}
	specs := []RunSpec{
		{Workload: w1, Cores: 1, Scheme: "none"},
		{Workload: w1, Cores: 1, Scheme: "n4l-tagged"},
		{Workload: w2, Cores: 1, Scheme: "none"},
		{Workload: w2, Cores: 1, Scheme: "discontinuity", Bypass: true},
	}
	if err := e.RunBatchContext(context.Background(), specs, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Everything warmed: subsequent runs are cache hits.
	runs := 0
	e.Verbose = func(string) { runs++ }
	for _, s := range specs {
		e.MustRun(s)
	}
	if runs != 0 {
		t.Fatalf("%d specs re-ran after warm", runs)
	}
	// Warm surfaces spec errors.
	if err := e.RunBatchContext(context.Background(), []RunSpec{{Workload: w1, Cores: 1, Scheme: "bogus"}}, 0, nil); err == nil {
		t.Fatal("bad spec warmed without error")
	}
}

func TestRunContextDedupsConcurrentIdenticalSpecs(t *testing.T) {
	e := smallEngine()
	spec := RunSpec{Workload: Workload{Name: "DB", Apps: []string{"DB"}}, Cores: 1, Scheme: "none"}
	const callers = 8
	var wg sync.WaitGroup
	results := make([]Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := e.RunContext(context.Background(), spec)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i].Total.Cycles != results[0].Total.Cycles {
			t.Fatal("deduplicated callers observed different results")
		}
	}
	c := e.Counters()
	if c.Simulations != 1 {
		t.Fatalf("%d simulations for %d identical concurrent specs", c.Simulations, callers)
	}
	if c.DedupWaits+c.MemoHits != callers-1 {
		t.Fatalf("dedup accounting off: %+v", c)
	}
}

func TestRunContextCancellationMidSimulation(t *testing.T) {
	// Budgets far too large to finish quickly; cancellation must stop
	// the run at a context poll.
	e := NewEngine(500_000_000, 500_000_000, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.RunContext(ctx, RunSpec{Workload: Workload{Name: "DB", Apps: []string{"DB"}}, Cores: 1, Scheme: "none"})
	if err == nil {
		t.Fatal("huge run completed despite 50ms deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unexpected error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
}

func TestFigureRunnerCancellation(t *testing.T) {
	e := NewEngine(500_000_000, 500_000_000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range append(e.Figures(), e.Ablations()...) {
		if _, err := r.Run(ctx); err == nil {
			t.Fatalf("runner %s ignored a cancelled context", r.ID)
		}
	}
}

func TestEngineMemoBounded(t *testing.T) {
	e := NewEngine(20_000, 40_000, 1)
	e.memoCap = 2
	w := Workload{Name: "Web", Apps: []string{"Web"}}
	specs := []RunSpec{
		{Workload: w, Cores: 1, Scheme: "none"},
		{Workload: w, Cores: 1, Scheme: "nl-miss"},
		{Workload: w, Cores: 1, Scheme: "n4l-tagged"},
	}
	for _, s := range specs {
		e.MustRun(s)
		if n := e.Counters().MemoEntries; n > 2 {
			t.Fatalf("memo holds %d entries, cap 2", n)
		}
	}
	// specs[0] was evicted first: it re-simulates, while the newest
	// spec is still a memo hit.
	e.MustRun(specs[2])
	if c := e.Counters(); c.Simulations != 3 || c.MemoHits != 1 {
		t.Fatalf("newest spec not served from the memo: %+v", c)
	}
	e.MustRun(specs[0])
	if c := e.Counters(); c.Simulations != 4 {
		t.Fatalf("evicted spec did not re-simulate: %+v", c)
	}
}

// TestRunnersPlanEveryRun checks that each runner's planning pass names
// every run its body performs: the tabulation pass that follows the
// batch simulates nothing, and the tables equal a serial run of the
// body on a fresh engine.
func TestRunnersPlanEveryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure and ablation")
	}
	bodies := map[string]func(*Engine, context.Context) []*stats.Table{
		"1": (*Engine).figure1, "2": (*Engine).figure2, "3": (*Engine).figure3,
		"4": (*Engine).figure4, "5": (*Engine).figure5, "6": (*Engine).figure6,
		"7": (*Engine).figure7, "8": (*Engine).figure8, "9": (*Engine).figure9,
		"10": (*Engine).figure10,
		"a1": (*Engine).ablationA1, "a2": (*Engine).ablationA2, "a3": (*Engine).ablationA3,
		"a4": (*Engine).ablationA4, "a5": (*Engine).ablationA5, "a6": (*Engine).ablationA6,
		"a7": (*Engine).ablationA7, "a8": (*Engine).ablationA8, "a9": (*Engine).ablationA9,
		"a10": (*Engine).ablationA10,
	}
	render := func(tables []*stats.Table) string {
		var sb strings.Builder
		for _, tb := range tables {
			sb.WriteString(tb.String())
		}
		return sb.String()
	}
	ctx := context.Background()
	planned := NewEngine(20_000, 40_000, 1)
	serial := NewEngine(20_000, 40_000, 1)
	runners := append(planned.Figures(), planned.Ablations()...)
	if len(runners) != len(bodies) {
		t.Fatalf("%d runners, %d bodies", len(runners), len(bodies))
	}
	for _, r := range runners {
		body, ok := bodies[r.ID]
		if !ok {
			t.Fatalf("no body for runner %s", r.ID)
		}
		var before uint64
		got, err := planned.planned(r.ID, r.Name, func(ctx context.Context) []*stats.Table {
			if ctx.Value(planKey{}) == nil {
				before = planned.Counters().Simulations
			}
			return body(planned, ctx)
		}).Run(ctx)
		if err != nil {
			t.Fatalf("runner %s: %v", r.ID, err)
		}
		if n := planned.Counters().Simulations - before; n != 0 {
			t.Errorf("runner %s: tabulation pass ran %d unplanned simulations", r.ID, n)
		}
		want := body(serial, ctx)
		if render(got) != render(want) {
			t.Errorf("runner %s: planned tables differ from the serial body's:\n%s\nwant:\n%s", r.ID, render(got), render(want))
		}
		viaRunner, err := r.Run(ctx)
		if err != nil || render(viaRunner) != render(want) {
			t.Errorf("runner %s: Run's tables differ from the serial body's (err %v)", r.ID, err)
		}
	}
}
