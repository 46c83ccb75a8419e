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
	if err := e.Warm(specs); err != nil {
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
	if err := e.Warm([]RunSpec{{Workload: w1, Cores: 1, Scheme: "bogus"}}); err == nil {
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
	if _, err := e.Figure1(ctx); err == nil {
		t.Fatal("Figure1 ignored a cancelled context")
	}
	if _, err := e.AblationA5(ctx); err == nil {
		t.Fatal("AblationA5 ignored a cancelled context")
	}
	if err := e.WarmContext(ctx, e.AllSpecs()); err == nil {
		t.Fatal("WarmContext ignored a cancelled context")
	}
}

func TestAllSpecsValid(t *testing.T) {
	e := smallEngine()
	specs := e.AllSpecs()
	if len(specs) < 150 {
		t.Fatalf("suspiciously few specs: %d", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.key()] {
			t.Errorf("duplicate spec: %s", s.key())
		}
		seen[s.key()] = true
	}
}
