package sweep

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/sim"
)

// Runner executes sweeps: it expands a Spec, replays already
// checkpointed points from the Journal, and shards the remaining
// points across a bounded worker pool through Engine.RunBatchContext
// (whose memoisation and in-flight dedup are shared with any other
// traffic on the same engine, e.g. the service job queue).
type Runner struct {
	// Engine executes the points; its budgets (WarmInstrs,
	// MeasureInstrs, Seed) apply where the spec leaves its own zero.
	// Required.
	Engine *sim.Engine
	// Workers bounds concurrent simulations. Default: GOMAXPROCS.
	Workers int
	// Journal, when non-nil, checkpoints completed points and replays
	// them on resume.
	Journal *Journal
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// OnPoint, when non-nil, is called (serialised) after every point
	// resolves — recovered from the journal or freshly simulated.
	// Progress trackers and tests hook here.
	OnPoint func(PointResult)
}

// Outcome is a completed sweep: every point's result in grid order,
// plus how the work split between recovery and simulation.
type Outcome struct {
	Spec   Spec          `json:"spec"`
	Points []PointResult `json:"points"`
	// Recovered counts points replayed from the journal; Simulated
	// counts points this run actually executed (including engine memo
	// hits, which are still resolved through RunContext).
	Recovered int `json:"recovered"`
	Simulated int `json:"simulated"`
}

// Run executes the sweep to completion under ctx. On cancellation it
// returns ctx's error; every point that finished before the
// interruption is already checkpointed, so a later Run with the same
// spec, budgets and journal resumes with zero recomputed points.
func (r *Runner) Run(ctx context.Context, spec Spec) (*Outcome, error) {
	if r.Engine == nil {
		return nil, fmt.Errorf("sweep: runner needs an engine")
	}
	budgets := r.Engine.Resolve(spec.Budgets())
	points, err := spec.Expand()
	if err != nil {
		return nil, err
	}

	out := &Outcome{Spec: spec, Points: make([]PointResult, len(points))}
	var mu sync.Mutex // guards out counters and OnPoint serialisation
	resolve := func(res PointResult) {
		mu.Lock()
		out.Points[res.Point.Index] = res
		if res.Recovered {
			out.Recovered++
		} else {
			out.Simulated++
		}
		cb := r.OnPoint
		if cb != nil {
			cb(res)
		}
		mu.Unlock()
	}

	// Pass 1: replay checkpoints, collect the points still to run.
	var todo []Point
	var specs []sim.RunSpec
	for _, p := range points {
		rs, err := p.RunSpec()
		if err != nil {
			return nil, err
		}
		rs.WarmInstrs, rs.MeasureInstrs, rs.Seed = budgets.WarmInstrs, budgets.MeasureInstrs, budgets.Seed
		if r.Journal != nil {
			if res, ok := r.Journal.Get(rs.Key()); ok {
				res.Point = p // grid indices may differ across spec edits
				resolve(res)
				continue
			}
		}
		todo = append(todo, p)
		specs = append(specs, rs)
	}
	r.logf("sweep %s: %d points (%d checkpointed, %d to run)",
		spec.ID(budgets.WarmInstrs, budgets.MeasureInstrs, budgets.Seed), len(points), out.Recovered, len(todo))

	// Pass 2: shard the remainder through the engine's batching layer,
	// which forks fork-warm points sharing a warm phase from one
	// snapshot and runs the rest solo. Checkpointing happens in the
	// completion callback, so an interrupted sweep still resumes from
	// every point that finished.
	err = r.Engine.RunBatchContext(ctx, specs, r.Workers, func(i int, simRes sim.Result, err error, elapsed time.Duration) {
		if err != nil {
			return // RunBatchContext returns the first error itself
		}
		res := NewPointResult(todo[i], specs[i].Key(), simRes, elapsed)
		if r.Journal != nil {
			if jerr := r.Journal.Put(res); jerr != nil {
				// A failed checkpoint costs recomputation on resume,
				// not correctness; log and continue.
				r.logf("sweep: checkpoint point %d: %v", todo[i].Index, jerr)
			}
		}
		resolve(res)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}
