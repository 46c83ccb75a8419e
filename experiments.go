package repro

import (
	"context"
	"io"

	"repro/internal/sim"
	"repro/internal/stats"
)

// ExperimentConfig sizes the experiment engine. Zero values take
// interactive-scale defaults (1.5M warm + 3M measured instructions per
// core).
type ExperimentConfig struct {
	// WarmInstrs and MeasureInstrs are per-core instruction budgets.
	WarmInstrs    uint64
	MeasureInstrs uint64
	// Seed drives all workload streams. Default 1.
	Seed uint64
	// Verbose, when non-nil, receives one line per completed simulation.
	Verbose func(string)
}

// Experiments reproduces the paper's evaluation figures. It memoises
// simulation runs, so regenerating several figures shares baselines.
type Experiments struct {
	eng *sim.Engine
}

// NewExperiments builds an experiment engine.
func NewExperiments(cfg ExperimentConfig) *Experiments {
	b := sim.DefaultEngine().Resolve(sim.RunSpec{
		WarmInstrs: cfg.WarmInstrs, MeasureInstrs: cfg.MeasureInstrs, Seed: cfg.Seed,
	})
	eng := sim.NewEngine(b.WarmInstrs, b.MeasureInstrs, b.Seed)
	eng.Verbose = cfg.Verbose
	return &Experiments{eng: eng}
}

// Table is one paper-style result table.
type Table struct {
	t *stats.Table
}

// Title returns the table's caption.
func (t Table) Title() string { return t.t.Title }

// String renders the table as aligned text.
func (t Table) String() string { return t.t.String() }

// WriteCSV emits the table as CSV.
func (t Table) WriteCSV(w io.Writer) { t.t.CSV(w) }

// WriteMarkdown emits the table as GitHub-flavored markdown.
func (t Table) WriteMarkdown(w io.Writer) { t.t.Markdown(w) }

// Figure identifies one reproducible figure of the paper.
type Figure struct {
	// ID is "1".."10" for the paper's figures, "a1".."a10" for ablations.
	ID string
	// Name is a short description.
	Name string
	// Run executes the experiment and returns its tables. It panics on
	// simulation errors (the built-in figures use known-good specs);
	// use RunContext to bound or cancel long runs instead.
	Run func() []Table
	// RunContext executes the experiment under ctx: the underlying
	// simulations stop early and return ctx.Err() when it fires.
	RunContext func(ctx context.Context) ([]Table, error)
}

func wrapRunner(f sim.Runner) Figure {
	run := f.Run
	return Figure{
		ID:   f.ID,
		Name: f.Name,
		Run: func() []Table {
			ts, err := run(context.Background())
			if err != nil {
				panic(err)
			}
			return wrapTables(ts)
		},
		RunContext: func(ctx context.Context) ([]Table, error) {
			ts, err := run(ctx)
			if err != nil {
				return nil, err
			}
			return wrapTables(ts), nil
		},
	}
}

// Figures returns the paper's ten evaluation figures in order.
func (e *Experiments) Figures() []Figure {
	var out []Figure
	for _, f := range e.eng.Figures() {
		out = append(out, wrapRunner(f))
	}
	return out
}

// Ablations returns the beyond-the-paper design-choice studies.
func (e *Experiments) Ablations() []Figure {
	var out []Figure
	for _, f := range e.eng.Ablations() {
		out = append(out, wrapRunner(f))
	}
	return out
}

// Figure returns the figure with the given id, or false.
func (e *Experiments) Figure(id string) (Figure, bool) {
	for _, f := range e.Figures() {
		if f.ID == id {
			return f, true
		}
	}
	for _, f := range e.Ablations() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

func wrapTables(ts []*stats.Table) []Table {
	out := make([]Table, len(ts))
	for i, t := range ts {
		out[i] = Table{t: t}
	}
	return out
}
