package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// newDistServer mounts the coordinator exactly as the daemon does:
// under /v1/dist on a fresh mux.
func newDistServer(t testing.TB, c *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/v1/dist/", http.StripPrefix("/v1/dist", Handler(c)))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func newTestWorker(srv *httptest.Server, name string) *Worker {
	c := NewClient(srv.URL)
	c.Retry = fastRetry
	return &Worker{Client: c, Name: name, PollInterval: 20 * time.Millisecond}
}

// verifyJournal re-opens the sweep's journal from disk and checks it
// holds every grid point's key exactly once (the journal is
// content-addressed by key, so presence + count proves no gaps and no
// double entries).
func verifyJournal(t *testing.T, dir string, spec sweep.Spec, v SweepView) {
	t.Helper()
	j, err := sweep.OpenJournal(filepath.Join(dir, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	n, err := j.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != v.Total {
		t.Fatalf("journal holds %d points, want exactly %d", n, v.Total)
	}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		key, err := p.Key(v.WarmInstrs, v.MeasureInstrs, v.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if res, ok := j.Get(key); !ok {
			t.Fatalf("point %d missing from journal", p.Index)
		} else if res.IPC <= 0 || res.Instructions == 0 {
			t.Fatalf("point %d journaled empty: %+v", p.Index, res)
		}
	}
}

// TestDistributedSweepSurvivesWorkerKill is the subsystem's headline
// fault-tolerance guarantee: one of three workers dies mid-shard, its
// lease expires, the dangling points reinject, and the sweep still
// finishes with every grid point journaled exactly once.
func TestDistributedSweepSurvivesWorkerKill(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{
		LeaseTTL:          250 * time.Millisecond,
		ShardSize:         2,
		JournalDir:        dir,
		MaxWorkerFailures: 100, // the kill must not quarantine anyone
	})
	srv := newDistServer(t, c)
	spec := testSpec()
	v, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: the victim runs alone, so it is guaranteed to hold a
	// 2-point lease; it is killed right after delivering its first
	// point, leaving the second leased-but-undelivered.
	victimCtx, kill := context.WithCancel(context.Background())
	victim := newTestWorker(srv, "victim")
	victim.OnPoint = func(sweep.PointResult) { kill() }
	_ = victim.Run(victimCtx) // returns once killed
	if got, _ := c.Sweep(v.ID); got.Completed != 1 {
		t.Fatalf("victim delivered %d points before dying, want exactly 1", got.Completed)
	}

	// Phase 2: two healthy workers finish the sweep, picking up the
	// victim's dangling point once its lease lapses.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, name := range []string{"survivor-1", "survivor-2"} {
		w := newTestWorker(srv, name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	final, err := c.Wait(ctx, v.ID)
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if final.State != SweepCompleted || final.Completed != v.Total {
		t.Fatalf("sweep ended %s with %d/%d points (%s)", final.State, final.Completed, v.Total, final.Error)
	}
	s := c.Snapshot()
	if s.LeasesExpired < 1 || s.PointsReinjected < 1 {
		t.Fatalf("the kill left no trace: %+v", s)
	}
	if s.PointsCompleted != uint64(v.Total) {
		t.Fatalf("%d point deliveries counted, want exactly %d (idempotency)", s.PointsCompleted, v.Total)
	}
	verifyJournal(t, dir, spec, final)
	if data, _, ok := c.Artifact(v.ID, "results.json"); !ok || len(data) == 0 {
		t.Fatal("completed sweep has no results.json artifact")
	}
}

// TestCoordinatorRestartDoesNotRecompute kills a run mid-sweep, brings
// up a brand-new coordinator over the same journal root, and proves via
// the worker's engine counters that only the unfinished points are
// simulated in the second life.
func TestCoordinatorRestartDoesNotRecompute(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()

	// First life: a lone worker delivers a few points, then everything
	// (worker and coordinator) goes down.
	a := New(Config{LeaseTTL: 10 * time.Second, ShardSize: 1, JournalDir: dir})
	v, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	srvA := newDistServer(t, a)
	killCtx, kill := context.WithCancel(context.Background())
	var delivered int32
	w1 := newTestWorker(srvA, "first-life")
	w1.OnPoint = func(sweep.PointResult) {
		if atomic.AddInt32(&delivered, 1) == 2 {
			kill()
		}
	}
	_ = w1.Run(killCtx)
	srvA.Close()

	// The journal is the only survivor; read how far the first life got.
	j, err := sweep.OpenJournal(filepath.Join(dir, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	journaled, err := j.Len()
	if err != nil {
		t.Fatal(err)
	}
	if journaled == 0 || journaled >= v.Total {
		t.Fatalf("first life journaled %d of %d points, want a strict partial", journaled, v.Total)
	}

	// Second life: new coordinator, same journal root, fresh worker with
	// cold engines.
	b := New(Config{LeaseTTL: 10 * time.Second, ShardSize: 1, JournalDir: dir})
	resumed, err := b.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ID != v.ID || resumed.Recovered != journaled || resumed.Completed != journaled {
		t.Fatalf("resume view = %+v, want %d recovered under the same id", resumed, journaled)
	}
	srvB := newDistServer(t, b)
	w2 := newTestWorker(srvB, "second-life")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w2.Run(ctx)
	}()
	final, err := b.Wait(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done

	if final.State != SweepCompleted || final.Completed != v.Total || final.Recovered != journaled {
		t.Fatalf("resumed sweep ended %+v", final)
	}
	// The zero-recompute guarantee, asserted the hard way: the second
	// life's engines ran exactly the points the journal lacked.
	if c2 := w2.EngineCounters(); c2.Simulations != uint64(v.Total-journaled) {
		t.Fatalf("second life simulated %d points, want exactly %d (total %d - journaled %d)",
			c2.Simulations, v.Total-journaled, v.Total, journaled)
	}
	verifyJournal(t, dir, spec, final)
}

// TestWorkerForkWarmSweep runs a fork-warm grid through the coordinator
// and one worker. Every journaled point must equal what a local Runner
// produces under the same budgets, and the worker must run each warm
// phase once: one lease holds the whole grid, so its engine simulates
// every point plus one warm-up per warm group.
func TestWorkerForkWarmSweep(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	spec.ForkWarm = true
	c := New(Config{LeaseTTL: 10 * time.Second, ShardSize: 64, JournalDir: dir})
	v, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWorker(newDistServer(t, c), "fork")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	final, err := c.Wait(ctx, v.ID)
	cancel()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if final.State != SweepCompleted || final.Completed != v.Total {
		t.Fatalf("sweep ended %s with %d/%d points (%s)", final.State, final.Completed, v.Total, final.Error)
	}

	// The spec pins every budget, so the local engine's defaults never
	// apply.
	local, err := (&sweep.Runner{Engine: sim.DefaultEngine()}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	j, err := sweep.OpenJournal(filepath.Join(dir, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	canon := func(res sweep.PointResult) string {
		res.CreatedAt, res.ElapsedMS = time.Time{}, 0
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	warmKeys := map[string]bool{}
	for _, want := range local.Points {
		got, ok := j.Get(want.Key)
		if !ok {
			t.Fatalf("point %d (%s) missing from the journal", want.Point.Index, want.Key)
		}
		if canon(got) != canon(want) {
			t.Errorf("point %d: worker result %s, local %s", want.Point.Index, canon(got), canon(want))
		}
		rs, err := want.Point.RunSpec()
		if err != nil {
			t.Fatal(err)
		}
		warmKeys[rs.WarmKey()] = true
	}
	if len(warmKeys) >= len(local.Points) {
		t.Fatalf("%d warm groups for %d points: the grid shares no warm phase", len(warmKeys), len(local.Points))
	}
	if got, want := w.EngineCounters().Simulations, uint64(len(local.Points)+len(warmKeys)); got != want {
		t.Fatalf("worker ran %d simulations, want %d (%d points + %d warm groups)",
			got, want, len(local.Points), len(warmKeys))
	}
}

// BenchmarkFleet runs a 10-point grid through a fresh coordinator over
// HTTP with 1 and 4 workers, each a full Worker with its own engine,
// so leases, heartbeats and point submission all cross the wire.
func BenchmarkFleet(b *testing.B) {
	spec := sweep.Spec{
		Name:          "bench",
		Schemes:       []string{"discontinuity", "nl-miss"},
		Workloads:     []string{"DB", "TPC-W"},
		Cores:         []int{1},
		TableEntries:  []int{512, 1024, 2048},
		WarmInstrs:    100_000,
		MeasureInstrs: 200_000,
		Seed:          1,
	}
	for _, n := range []int{1, 4} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			var points, leases uint64
			for i := 0; i < b.N; i++ {
				c := New(Config{LeaseTTL: 10 * time.Second, ShardSize: 2})
				srv := newDistServer(b, c)
				v, err := c.Submit(spec)
				if err != nil {
					b.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				var wg sync.WaitGroup
				for w := 0; w < n; w++ {
					wk := newTestWorker(srv, "bench-"+strconv.Itoa(w))
					wg.Add(1)
					go func() {
						defer wg.Done()
						wk.Run(ctx)
					}()
				}
				final, err := c.Wait(context.Background(), v.ID)
				cancel()
				wg.Wait()
				if err != nil {
					b.Fatal(err)
				}
				if final.State != SweepCompleted {
					b.Fatalf("sweep ended %s: %s", final.State, final.Error)
				}
				points += uint64(final.Total)
				leases += c.Snapshot().LeasesGranted
			}
			b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
			b.ReportMetric(float64(points)/float64(leases), "points/lease")
		})
	}
}
