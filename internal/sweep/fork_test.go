package sweep

import (
	"context"
	"testing"
	"time"

	"repro/internal/sim"
)

// forkSpec is a dense grid where every point shares one scheme-neutral
// warm phase — the shape fork-and-diverge is built for.
func forkSpec() Spec {
	return Spec{
		Schemes:       []string{"discontinuity"},
		Workloads:     []string{"DB"},
		Cores:         []int{1},
		TableEntries:  []int{256, 512},
		PrefetchAhead: []int{0, 2},
		ForkWarm:      true,
	}
}

// TestForkWarmSweepMatchesSoloFork is the sweep-layer differential: the
// Runner's batched fork path must produce points bit-identical to
// running each fork-warm point solo through the engine, and it must
// simulate exactly one shared warm phase on top of the measurements.
// (Fork vs *cold* intentionally differs for active schemes — the warm
// phase is scheme-neutral — which is why ForkWarm is part of the key.)
func TestForkWarmSweepMatchesSoloFork(t *testing.T) {
	spec := forkSpec()
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}

	engBatch := testEngine()
	fork, err := (&Runner{Engine: engBatch, Workers: 4}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(fork.Points) != len(points) {
		t.Fatalf("outcome has %d points, want %d", len(fork.Points), len(points))
	}

	solo := testEngine()
	warmKeys := map[string]bool{}
	for i, p := range points {
		rs, err := p.RunSpec()
		if err != nil {
			t.Fatal(err)
		}
		warmKeys[rs.WarmKey()] = true
		simRes, err := solo.Run(rs)
		if err != nil {
			t.Fatal(err)
		}
		want := NewPointResult(p, fork.Points[i].Key, simRes, time.Duration(0))
		got := fork.Points[i]
		if got.IPC != want.IPC || got.Cycles != want.Cycles ||
			got.Instructions != want.Instructions ||
			got.L1IMissPerInstr != want.L1IMissPerInstr ||
			got.PrefetchIssued != want.PrefetchIssued ||
			got.PrefetchUseful != want.PrefetchUseful {
			t.Fatalf("point %d diverges batch vs solo fork:\nbatch %+v\nsolo  %+v", i, got, want)
		}
	}

	// Grid points share warm phases per warm key (the bypass-off
	// baseline warms separately from the bypass-on grid), so the batch
	// engine runs len(points) measurements + one warm per group.
	if c := engBatch.Counters(); c.Simulations != uint64(len(points)+len(warmKeys)) {
		t.Fatalf("batch engine ran %d simulations, want %d (grid) + %d (shared warms)",
			c.Simulations, len(points), len(warmKeys))
	}
}

// TestForkWarmKeysDoNotAliasCold: the same grid with ForkWarm off mints
// different journal keys, so fork and cold sweeps never share results.
func TestForkWarmKeysDoNotAliasCold(t *testing.T) {
	spec := forkSpec()
	cold := spec
	cold.ForkWarm = false
	fp, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := cold.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != len(cp) {
		t.Fatalf("fork and cold grids differ in size: %d vs %d", len(fp), len(cp))
	}
	for i := range fp {
		fk, err := fp[i].Key(20_000, 50_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := cp[i].Key(20_000, 50_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if fk == ck {
			t.Fatalf("point %d: fork and cold share journal key %q", i, fk)
		}
	}
	if forkID, coldID := spec.ID(20_000, 50_000, 1), cold.ID(20_000, 50_000, 1); forkID == coldID {
		t.Fatalf("fork and cold specs share sweep ID %s", forkID)
	}
}

// TestForkWarmSweepJournalsAndResumes: fork-warm points checkpoint like
// any others — a second run over the journal recovers everything without
// touching the engine.
func TestForkWarmSweepJournalsAndResumes(t *testing.T) {
	spec := forkSpec()
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first, err := (&Runner{Engine: testEngine(), Workers: 2, Journal: j}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Simulated != len(points) || first.Recovered != 0 {
		t.Fatalf("first run split simulated=%d recovered=%d, want %d/0",
			first.Simulated, first.Recovered, len(points))
	}

	eng2 := testEngine()
	second, err := (&Runner{Engine: eng2, Journal: j}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Recovered != len(points) || second.Simulated != 0 {
		t.Fatalf("resume split recovered=%d simulated=%d, want %d/0",
			second.Recovered, second.Simulated, len(points))
	}
	if c := eng2.Counters(); c.Simulations != 0 {
		t.Fatalf("resume ran %d simulations, want 0", c.Simulations)
	}
	for i := range first.Points {
		f, g := first.Points[i], second.Points[i]
		if f.IPC != g.IPC || f.Cycles != g.Cycles {
			t.Fatalf("point %d differs across journal replay: %+v vs %+v", i, f, g)
		}
	}
}

// BenchmarkDenseGrid runs a dense same-workload grid cold and then
// fork-warm, on a fresh engine per iteration so the memo stays out of
// the comparison. Bypass is pinned off so the implicit baseline shares
// the grid's warm key, and warm-dominated budgets make the shared
// warm-up the bulk of a cold point's work.
func BenchmarkDenseGrid(b *testing.B) {
	for _, fork := range []bool{false, true} {
		name := "cold"
		if fork {
			name = "fork"
		}
		b.Run(name, func(b *testing.B) {
			spec := Spec{
				Schemes:       []string{"discontinuity"},
				Workloads:     []string{"DB"},
				Cores:         []int{1},
				Bypass:        []bool{false},
				TableEntries:  []int{256, 512, 1024, 2048},
				PrefetchAhead: []int{0, 2, 4},
				ForkWarm:      fork,
			}
			points := 0
			for i := 0; i < b.N; i++ {
				out, err := (&Runner{Engine: sim.NewEngine(600_000, 60_000, 1)}).Run(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				points += len(out.Points)
			}
			b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
		})
	}
}
