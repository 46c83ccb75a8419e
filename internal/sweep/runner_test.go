package sweep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// testEngine uses tiny budgets so every point simulates in well under a
// second.
func testEngine() *sim.Engine {
	return sim.NewEngine(20_000, 50_000, 1)
}

func TestRunCompletesEveryPointExactlyOnce(t *testing.T) {
	eng := testEngine()
	r := &Runner{Engine: eng, Workers: 4}
	spec := threeAxisSpec()
	out, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	points, _ := spec.Expand()
	if len(out.Points) != len(points) {
		t.Fatalf("outcome has %d points, want %d", len(out.Points), len(points))
	}
	for i, res := range out.Points {
		if res.Point.Index != i {
			t.Fatalf("result %d carries point index %d", i, res.Point.Index)
		}
		if res.IPC <= 0 || res.Instructions == 0 {
			t.Fatalf("point %d has empty result: %+v", i, res)
		}
		if res.Recovered {
			t.Fatalf("point %d marked recovered with no journal", i)
		}
	}
	c := eng.Counters()
	if c.Simulations != uint64(len(points)) {
		t.Fatalf("engine ran %d simulations, want %d (one per unique point)",
			c.Simulations, len(points))
	}
	if out.Simulated != len(points) || out.Recovered != 0 {
		t.Fatalf("work split simulated=%d recovered=%d, want %d/0",
			out.Simulated, out.Recovered, len(points))
	}
}

// TestInterruptedSweepResumesWithoutRecomputation is the subsystem's
// core guarantee: cancel a sweep mid-run, restart it with a fresh
// engine over the same journal, and verify via the engine counters
// that no checkpointed point is simulated again.
func TestInterruptedSweepResumesWithoutRecomputation(t *testing.T) {
	dir := t.TempDir()
	spec := threeAxisSpec()
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	total := len(points)

	// First run: cancel after two points have checkpointed.
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resolved := 0
	r1 := &Runner{Engine: testEngine(), Workers: 1, Journal: j,
		OnPoint: func(PointResult) {
			resolved++
			if resolved == 2 {
				cancel()
			}
		},
	}
	if _, err := r1.Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	checkpointed, err := j.Len()
	if err != nil {
		t.Fatal(err)
	}
	if checkpointed < 2 || checkpointed >= total {
		t.Fatalf("journal has %d points after interruption, want in [2, %d)", checkpointed, total)
	}

	// Second run: fresh engine, same journal. Zero recomputed points.
	eng2 := testEngine()
	r2 := &Runner{Engine: eng2, Workers: 2, Journal: j}
	out, err := r2.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Recovered != checkpointed {
		t.Fatalf("resume recovered %d points, want %d", out.Recovered, checkpointed)
	}
	if out.Simulated != total-checkpointed {
		t.Fatalf("resume simulated %d points, want %d", out.Simulated, total-checkpointed)
	}
	c := eng2.Counters()
	if c.Simulations != uint64(total-checkpointed) {
		t.Fatalf("resume engine ran %d simulations, want %d (zero recomputation)",
			c.Simulations, total-checkpointed)
	}
	for i, res := range out.Points {
		if res.IPC <= 0 {
			t.Fatalf("resumed outcome missing point %d: %+v", i, res)
		}
	}

	// Third run over the complete journal: nothing simulates at all.
	eng3 := testEngine()
	out3, err := (&Runner{Engine: eng3, Journal: j}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out3.Recovered != total || out3.Simulated != 0 {
		t.Fatalf("replay split recovered=%d simulated=%d, want %d/0",
			out3.Recovered, out3.Simulated, total)
	}
	if c := eng3.Counters(); c.Simulations != 0 {
		t.Fatalf("replay ran %d simulations, want 0", c.Simulations)
	}
}

// TestRunHonoursSpecBudgets: a budget the spec pins wins over the
// engine's, names every point and yields the result of an engine built
// with that budget.
func TestRunHonoursSpecBudgets(t *testing.T) {
	spec := threeAxisSpec()
	spec.MeasureInstrs = 30_000 // the engine's default is 50k
	out, err := (&Runner{Engine: testEngine()}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.NewEngine(20_000, 30_000, 1)
	for _, res := range out.Points {
		if !strings.Contains(res.Key, "|measure=30000|") {
			t.Errorf("point %d key %q does not carry the pinned budget", res.Point.Index, res.Key)
		}
		rs, err := res.Point.RunSpec()
		if err != nil {
			t.Fatal(err)
		}
		simRes, err := ref.Run(rs)
		if err != nil {
			t.Fatal(err)
		}
		want := NewPointResult(res.Point, res.Key, simRes, 0)
		want.CreatedAt, want.ElapsedMS = res.CreatedAt, res.ElapsedMS
		if !reflect.DeepEqual(want, res) {
			t.Errorf("point %d: got %+v, want %+v", res.Point.Index, res, want)
		}
	}
}

// TestResumedResultsMatchFreshRun guards determinism end to end: a
// journal-assisted outcome must be metric-identical to an uncheckpointed
// run of the same spec.
func TestResumedResultsMatchFreshRun(t *testing.T) {
	spec := Spec{
		Schemes:      []string{"discontinuity"},
		Workloads:    []string{"DB"},
		Cores:        []int{1},
		TableEntries: []int{512},
	}
	fresh, err := (&Runner{Engine: testEngine()}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{Engine: testEngine(), Journal: j}).Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	replayed, err := (&Runner{Engine: testEngine(), Journal: j}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Points {
		f, g := fresh.Points[i], replayed.Points[i]
		if f.IPC != g.IPC || f.Cycles != g.Cycles || f.L1IMissPerInstr != g.L1IMissPerInstr {
			t.Fatalf("point %d differs across journal replay: fresh %+v vs replayed %+v", i, f, g)
		}
	}
}
