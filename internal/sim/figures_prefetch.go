package sim

import (
	"context"
	"fmt"

	"repro/internal/prefetch"
	"repro/internal/stats"
)

// paperSchemes are the four prefetchers compared in Figures 5-8.
func paperSchemes() []string { return prefetch.PaperSchemes() }

// prettyScheme maps registry names to the paper's labels.
func prettyScheme(name string) string {
	switch name {
	case "nl-miss":
		return "Next-line (on miss)"
	case "nl-tagged":
		return "Next-line (tagged)"
	case "n4l-tagged":
		return "Next-4-lines (tagged)"
	case "discontinuity":
		return "Discontinuity"
	case "discont-2nl":
		return "Discont (2NL)"
	default:
		return name
	}
}

// figure5 reproduces the miss-rate study: instruction miss rates of the
// four prefetch schemes relative to no prefetching, for (i) the
// instruction cache, (ii) the L2 (single core) and (iii) the L2 (CMP).
func (e *Engine) figure5(ctx context.Context) []*stats.Table {
	missTable := func(title string, cores int, l2 bool) *stats.Table {
		ws := PaperWorkloads(cores > 1)
		t := stats.NewTable(title, append([]string{"Prefetcher"}, workloadNames(ws)...)...)
		for _, scheme := range paperSchemes() {
			row := []string{prettyScheme(scheme)}
			for _, w := range ws {
				base := e.baseline(ctx, w, cores)
				r := e.mustRun(ctx, RunSpec{Workload: w, Cores: cores, Scheme: scheme})
				var num, den float64
				if l2 {
					num, den = float64(r.Total.L2I.Misses), float64(base.Total.L2I.Misses)
				} else {
					num, den = float64(r.Total.L1I.Misses), float64(base.Total.L1I.Misses)
				}
				if den == 0 {
					row = append(row, "-")
					continue
				}
				row = append(row, fmt.Sprintf("%.3f", num/den))
			}
			t.AddRow(row...)
		}
		return t
	}
	return []*stats.Table{
		missTable("Figure 5(i): I$ miss rate (normalized to no prefetch)", 1, false),
		missTable("Figure 5(ii): L2$ instruction miss rate, single core (normalized)", 1, true),
		missTable("Figure 5(iii): L2$ instruction miss rate, 4-way CMP (normalized)", 4, true),
	}
}

// speedupTable builds a Figures 6/8-style table: IPC of each scheme over
// the no-prefetch baseline, with or without the L2-bypass policy.
func (e *Engine) speedupTable(ctx context.Context, title string, cores int, bypass bool, schemes []string) *stats.Table {
	ws := PaperWorkloads(cores > 1)
	t := stats.NewTable(title, append([]string{"Prefetcher"}, workloadNames(ws)...)...)
	for _, scheme := range schemes {
		row := []string{prettyScheme(scheme)}
		for _, w := range ws {
			base := e.baseline(ctx, w, cores)
			r := e.mustRun(ctx, RunSpec{Workload: w, Cores: cores, Scheme: scheme, Bypass: bypass})
			row = append(row, ratio(r.Total.IPC()/base.Total.IPC()))
		}
		t.AddRow(row...)
	}
	return t
}

// figure6 reproduces the performance study WITHOUT the bypass policy:
// aggressive prefetching pollutes the shared L2, capping the gains.
func (e *Engine) figure6(ctx context.Context) []*stats.Table {
	return []*stats.Table{
		e.speedupTable(ctx, "Figure 6(i): Speedup by prefetcher, single core (prefetches install into L2)", 1, false, paperSchemes()),
		e.speedupTable(ctx, "Figure 6(ii): Speedup by prefetcher, 4-way CMP (prefetches install into L2)", 4, false, paperSchemes()),
	}
}

// figure7 reproduces the pollution study: L2 data miss rate of each
// prefetcher relative to no prefetching (conventional install policy).
func (e *Engine) figure7(ctx context.Context) []*stats.Table {
	pollutionTable := func(title string, cores int) *stats.Table {
		ws := PaperWorkloads(cores > 1)
		t := stats.NewTable(title, append([]string{"Prefetcher"}, workloadNames(ws)...)...)
		for _, scheme := range paperSchemes() {
			row := []string{prettyScheme(scheme)}
			for _, w := range ws {
				base := e.baseline(ctx, w, cores)
				r := e.mustRun(ctx, RunSpec{Workload: w, Cores: cores, Scheme: scheme})
				den := float64(base.Total.L2D.Misses)
				if den == 0 {
					row = append(row, "-")
					continue
				}
				row = append(row, fmt.Sprintf("%.3f", float64(r.Total.L2D.Misses)/den))
			}
			t.AddRow(row...)
		}
		return t
	}
	return []*stats.Table{
		pollutionTable("Figure 7(i): L2$ data miss rate (normalized to no prefetch), single core", 1),
		pollutionTable("Figure 7(ii): L2$ data miss rate (normalized to no prefetch), 4-way CMP", 4),
	}
}

// figure8 reproduces the performance study WITH the L2-bypass install
// policy of Section 7: prefetches enter the L2 only once proven useful.
func (e *Engine) figure8(ctx context.Context) []*stats.Table {
	return []*stats.Table{
		e.speedupTable(ctx, "Figure 8(i): Speedup by prefetcher, single core (L2 bypass prefetches)", 1, true, paperSchemes()),
		e.speedupTable(ctx, "Figure 8(ii): Speedup by prefetcher, 4-way CMP (L2 bypass prefetches)", 4, true, paperSchemes()),
	}
}

// figure9 reproduces (i) prefetch accuracy on the CMP and (ii) the
// performance of the bandwidth-frugal next-2-line discontinuity variant.
func (e *Engine) figure9(ctx context.Context) []*stats.Table {
	schemes := append(paperSchemes(), "discont-2nl")
	ws := PaperWorkloads(true)

	acc := stats.NewTable("Figure 9(i): Prefetch accuracy, 4-way CMP (L2 bypass prefetches)",
		append([]string{"Prefetcher"}, workloadNames(ws)...)...)
	for _, scheme := range schemes {
		row := []string{prettyScheme(scheme)}
		for _, w := range ws {
			r := e.mustRun(ctx, RunSpec{Workload: w, Cores: 4, Scheme: scheme, Bypass: true})
			row = append(row, pct(r.Total.Prefetch.Accuracy(), 1))
		}
		acc.AddRow(row...)
	}

	perf := e.speedupTable(ctx, "Figure 9(ii): Speedup incl. next-2-line discontinuity, 4-way CMP (L2 bypass)", 4, true, schemes)
	return []*stats.Table{acc, perf}
}

// figure10 reproduces the table-size sensitivity study: miss coverage of
// the discontinuity prefetcher as its prediction table shrinks from 8192
// to 256 entries, against the next-4-line sequential prefetcher.
func (e *Engine) figure10(ctx context.Context) []*stats.Table {
	sizes := []int{8192, 4096, 2048, 1024, 512, 256}
	ws := PaperWorkloads(true)

	coverage := func(title string, l2 bool) *stats.Table {
		t := stats.NewTable(title, append([]string{"Predictor"}, workloadNames(ws)...)...)
		cov := func(r, base Result) string {
			var num, den float64
			if l2 {
				num, den = float64(r.Total.L2I.Misses), float64(base.Total.L2I.Misses)
			} else {
				num, den = float64(r.Total.L1I.Misses), float64(base.Total.L1I.Misses)
			}
			if den == 0 {
				return "-"
			}
			return pct(1-num/den, 1)
		}
		for _, size := range sizes {
			row := []string{fmt.Sprintf("%d-entries", size)}
			for _, w := range ws {
				base := e.baseline(ctx, w, 4)
				r := e.mustRun(ctx, RunSpec{Workload: w, Cores: 4, Scheme: "discontinuity",
					Bypass: true, TableEntries: size})
				row = append(row, cov(r, base))
			}
			t.AddRow(row...)
		}
		row := []string{"Next-4lines (tagged)"}
		for _, w := range ws {
			base := e.baseline(ctx, w, 4)
			r := e.mustRun(ctx, RunSpec{Workload: w, Cores: 4, Scheme: "n4l-tagged", Bypass: true})
			row = append(row, cov(r, base))
		}
		t.AddRow(row...)
		return t
	}
	return []*stats.Table{
		coverage("Figure 10(i): L1 I$ miss coverage vs discontinuity table size (4-way CMP)", false),
		coverage("Figure 10(ii): L2$ instruction miss coverage vs discontinuity table size (4-way CMP)", true),
	}
}

// Runner is one figure or ablation entry: a stable id, a display name,
// and the context-aware experiment runner.
type Runner struct {
	ID   string
	Name string
	Run  func(context.Context) ([]*stats.Table, error)
}

// Figures maps figure ids to runners, in paper order.
func (e *Engine) Figures() []Runner {
	return []Runner{
		e.planned("1", "I$ miss rate vs cache geometry", e.figure1),
		e.planned("2", "L2$ instruction miss rate vs capacity and core count", e.figure2),
		e.planned("3", "Instruction miss breakdown by category", e.figure3),
		e.planned("4", "Limits study: oracle miss elimination", e.figure4),
		e.planned("5", "Prefetcher miss-rate reduction", e.figure5),
		e.planned("6", "Prefetcher speedup (conventional install)", e.figure6),
		e.planned("7", "L2 data-miss pollution", e.figure7),
		e.planned("8", "Prefetcher speedup (L2 bypass)", e.figure8),
		e.planned("9", "Prefetch accuracy and discont-2NL", e.figure9),
		e.planned("10", "Coverage vs discontinuity table size", e.figure10),
	}
}
