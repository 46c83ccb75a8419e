package sim

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/stats"
)

// Ablations are design-choice studies beyond the paper's figures,
// checking that the mechanisms the paper motivates qualitatively
// actually pay off in this implementation.
func (e *Engine) Ablations() []Runner {
	return []Runner{
		e.planned("a1", "Eviction-counter protection of the discontinuity table", e.ablationA1),
		e.planned("a2", "Recent-demand prefetch filter", e.ablationA2),
		e.planned("a3", "Prefetch-ahead distance sweep", e.ablationA3),
		e.planned("a4", "Prefetch queue discipline (LIFO vs FIFO)", e.ablationA4),
		e.planned("a5", "Related-work prefetchers (target, Markov, wrong-path)", e.ablationA5),
		e.planned("a6", "L2 usefulness filter (Luk & Mowry refinement)", e.ablationA6),
		e.planned("a7", "Confidence filter replacing tag probes (Haga et al.)", e.ablationA7),
		e.planned("a8", "Off-chip bandwidth sensitivity", e.ablationA8),
		e.planned("a9", "L1-I replacement policy", e.ablationA9),
		e.planned("a10", "Write-back traffic modelling", e.ablationA10),
	}
}

// ablationA1 compares the 2-bit eviction counter against always-replace
// for the discontinuity table (paper Section 4, table management).
func (e *Engine) ablationA1(ctx context.Context) []*stats.Table {
	ws := PaperWorkloads(true)
	t := stats.NewTable("Ablation A1: discontinuity table replacement (4-way CMP, bypass; speedup over no prefetch)",
		append([]string{"Policy"}, workloadNames(ws)...)...)
	policies := []struct {
		label     string
		noCounter bool
	}{
		{"2-bit eviction counter (paper)", false},
		{"always replace on conflict", true},
	}
	for _, pol := range policies {
		row := []string{pol.label}
		for _, w := range ws {
			base := e.baseline(ctx, w, 4)
			r := e.mustRun(ctx, RunSpec{
				Workload: w, Cores: 4, Scheme: "discontinuity", Bypass: true,
				NoCounter: pol.noCounter,
				// Small table makes replacement policy matter.
				TableEntries: 512,
			})
			row = append(row, ratio(r.Total.IPC()/base.Total.IPC()))
		}
		t.AddRow(row...)
	}
	return []*stats.Table{t}
}

// ablationA2 measures what the recent-demand filter buys: queue traffic
// and performance with and without it (paper Section 4.1).
func (e *Engine) ablationA2(ctx context.Context) []*stats.Table {
	ws := PaperWorkloads(true)
	t := stats.NewTable("Ablation A2: recent-demand filter (4-way CMP, discontinuity, bypass)",
		"Configuration", "Workload", "Speedup", "Filtered-recent", "Issued", "Tag probes finding line cached")
	for _, noFilter := range []bool{false, true} {
		label := "filter ON (paper)"
		if noFilter {
			label = "filter OFF"
		}
		for _, w := range ws {
			base := e.baseline(ctx, w, 4)
			r := e.mustRun(ctx, RunSpec{
				Workload: w, Cores: 4, Scheme: "discontinuity", Bypass: true,
				NoRecentFilter: noFilter,
			})
			p := r.Total.Prefetch
			t.AddRow(label, w.Name,
				ratio(r.Total.IPC()/base.Total.IPC()),
				fmt.Sprintf("%d", p.FilteredRecent),
				fmt.Sprintf("%d", p.Issued),
				fmt.Sprintf("%d", p.ProbedInCache))
		}
	}
	return []*stats.Table{t}
}

// ablationA3 sweeps the prefetch-ahead distance N of the discontinuity
// prefetcher (the paper picks 4; Figure 9 shows 2 as an accuracy
// trade-off).
func (e *Engine) ablationA3(ctx context.Context) []*stats.Table {
	ws := PaperWorkloads(true)
	t := stats.NewTable("Ablation A3: prefetch-ahead distance (4-way CMP, discontinuity, bypass)",
		"N", "Workload", "Speedup", "Accuracy", "L1I misses vs no-prefetch")
	for _, n := range []int{1, 2, 4, 8} {
		for _, w := range ws {
			base := e.baseline(ctx, w, 4)
			r := e.mustRun(ctx, RunSpec{
				Workload: w, Cores: 4, Scheme: "discontinuity", Bypass: true,
				PrefetchAhead: n,
			})
			t.AddRow(fmt.Sprintf("%d", n), w.Name,
				ratio(r.Total.IPC()/base.Total.IPC()),
				pct(r.Total.Prefetch.Accuracy(), 1),
				fmt.Sprintf("%.3f", float64(r.Total.L1I.Misses)/float64(base.Total.L1I.Misses)))
		}
	}
	return []*stats.Table{t}
}

// ablationA4 compares the paper's LIFO prefetch-queue discipline against
// FIFO.
func (e *Engine) ablationA4(ctx context.Context) []*stats.Table {
	ws := PaperWorkloads(true)
	t := stats.NewTable("Ablation A4: prefetch queue discipline (4-way CMP, discontinuity, bypass; speedup over no prefetch)",
		append([]string{"Discipline"}, workloadNames(ws)...)...)
	for _, fifo := range []bool{false, true} {
		label := "LIFO (paper)"
		if fifo {
			label = "FIFO"
		}
		row := []string{label}
		for _, w := range ws {
			base := e.baseline(ctx, w, 4)
			r := e.mustRun(ctx, RunSpec{
				Workload: w, Cores: 4, Scheme: "discontinuity", Bypass: true,
				QueueFIFO: fifo,
			})
			row = append(row, ratio(r.Total.IPC()/base.Total.IPC()))
		}
		t.AddRow(row...)
	}
	return []*stats.Table{t}
}

// ablationA5 races the related-work schemes the paper discusses but
// does not evaluate (Section 2) against its own: a classic target
// prefetcher, a 2-way Markov prefetcher and wrong-path prefetching.
func (e *Engine) ablationA5(ctx context.Context) []*stats.Table {
	ws := PaperWorkloads(true)
	t := stats.NewTable("Ablation A5: related-work prefetchers (4-way CMP, bypass)",
		"Scheme", "Workload", "Speedup", "Residual L1I misses", "Accuracy")
	for _, scheme := range []string{"target", "markov", "wrong-path", "n4l-tagged", "discontinuity"} {
		for _, w := range ws {
			base := e.baseline(ctx, w, 4)
			r := e.mustRun(ctx, RunSpec{Workload: w, Cores: 4, Scheme: scheme, Bypass: true})
			t.AddRow(scheme, w.Name,
				ratio(r.Total.IPC()/base.Total.IPC()),
				fmt.Sprintf("%.3f", float64(r.Total.L1I.Misses)/float64(base.Total.L1I.Misses)),
				pct(r.Total.Prefetch.Accuracy(), 1))
		}
	}
	return []*stats.Table{t}
}

// ablationA6 evaluates the Luk & Mowry refinement the paper cites in
// Section 2.4: the L2 remembers lines whose previous prefetch was
// evicted unused and such lines are not re-prefetched.
func (e *Engine) ablationA6(ctx context.Context) []*stats.Table {
	ws := PaperWorkloads(true)
	t := stats.NewTable("Ablation A6: L2 usefulness filter (4-way CMP, discontinuity, bypass)",
		"Configuration", "Workload", "Speedup", "Issued", "Dropped-as-useless", "Accuracy")
	for _, filter := range []bool{false, true} {
		label := "filter OFF (paper)"
		if filter {
			label = "usefulness filter ON"
		}
		for _, w := range ws {
			base := e.baseline(ctx, w, 4)
			r := e.mustRun(ctx, RunSpec{Workload: w, Cores: 4, Scheme: "discontinuity",
				Bypass: true, L2UsefulnessFilter: filter})
			p := r.Total.Prefetch
			t.AddRow(label, w.Name,
				ratio(r.Total.IPC()/base.Total.IPC()),
				fmt.Sprintf("%d", p.Issued),
				fmt.Sprintf("%d", p.FilteredUseless),
				pct(p.Accuracy(), 1))
		}
	}
	return []*stats.Table{t}
}

// ablationA7 evaluates the Haga et al. organisation the paper discusses
// in Section 2.4: a per-entry confidence counter in the discontinuity
// table filters predictions so prefetches can issue WITHOUT probing the
// cache tags (saving the tag bandwidth the paper's own filter exists to
// protect).
func (e *Engine) ablationA7(ctx context.Context) []*stats.Table {
	ws := PaperWorkloads(true)
	t := stats.NewTable("Ablation A7: confidence filter vs tag probing (4-way CMP, discontinuity, bypass)",
		"Configuration", "Workload", "Speedup", "Issued", "Tag probes", "Accuracy")
	for _, conf := range []bool{false, true} {
		label := "tag probes (paper)"
		if conf {
			label = "confidence filter, no tag probes"
		}
		for _, w := range ws {
			base := e.baseline(ctx, w, 4)
			r := e.mustRun(ctx, RunSpec{Workload: w, Cores: 4, Scheme: "discontinuity",
				Bypass: true, ConfidenceFilter: conf})
			p := r.Total.Prefetch
			// With tag probing every popped prefetch inspects the tags;
			// the confidence organisation performs none at all.
			probes := uint64(0)
			if !conf {
				probes = p.Issued + p.ProbedInCache
			}
			t.AddRow(label, w.Name,
				ratio(r.Total.IPC()/base.Total.IPC()),
				fmt.Sprintf("%d", p.Issued),
				fmt.Sprintf("%d", probes),
				pct(p.Accuracy(), 1))
		}
	}
	return []*stats.Table{t}
}

// ablationA8 sweeps the CMP's off-chip bandwidth. The paper recommends
// the next-2-line discontinuity variant "in environments where off-chip
// bandwidth is constrained"; this ablation quantifies that claim: as
// bandwidth shrinks, the accuracy-frugal 2NL variant overtakes both the
// 4NL discontinuity prefetcher and the sequential next-4-lines.
func (e *Engine) ablationA8(ctx context.Context) []*stats.Table {
	t := stats.NewTable("Ablation A8: off-chip bandwidth sensitivity (4-way CMP, bypass; speedup over no prefetch at the same bandwidth)",
		"Bandwidth", "Workload", "Next-4-lines", "Discontinuity", "Discont (2NL)")
	workloads := []Workload{
		{Name: "DB", Apps: []string{"DB"}},
		{Name: "Mixed", Apps: []string{"DB", "TPC-W", "jApp", "Web"}},
	}
	for _, gbps := range []float64{5, 10, 20, 40} {
		for _, w := range workloads {
			base := e.mustRun(ctx, RunSpec{Workload: w, Cores: 4, Scheme: "none", OffChipGBps: gbps})
			row := []string{fmt.Sprintf("%g GB/s", gbps), w.Name}
			for _, scheme := range []string{"n4l-tagged", "discontinuity", "discont-2nl"} {
				r := e.mustRun(ctx, RunSpec{Workload: w, Cores: 4, Scheme: scheme,
					Bypass: true, OffChipGBps: gbps})
				row = append(row, ratio(r.Total.IPC()/base.Total.IPC()))
			}
			t.AddRow(row...)
		}
	}
	return []*stats.Table{t}
}

// ablationA9 swaps the L1-I replacement policy. The paper's machines use
// LRU; FIFO and random replacement show how much the miss rates of
// Figure 1 depend on it.
func (e *Engine) ablationA9(ctx context.Context) []*stats.Table {
	ws := PaperWorkloads(false)
	t := stats.NewTable("Ablation A9: L1-I replacement policy (single core, no prefetch; L1-I miss %/instr)",
		append([]string{"Policy"}, workloadNames(ws)...)...)
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random} {
		row := []string{pol.String()}
		for _, w := range ws {
			r := e.mustRun(ctx, RunSpec{Workload: w, Cores: 1, Scheme: "none", L1IPolicy: pol})
			row = append(row, fmt.Sprintf("%.3f", 100*r.Total.L1I.PerInstr(r.Total.Instructions)))
		}
		t.AddRow(row...)
	}
	return []*stats.Table{t}
}

// ablationA10 enables dirty-line write-back traffic, which the baseline
// model omits (the paper reports read-side bandwidth). It quantifies how
// much headroom the off-chip link loses to writes and what that does to
// the prefetcher.
func (e *Engine) ablationA10(ctx context.Context) []*stats.Table {
	t := stats.NewTable("Ablation A10: write-back traffic (4-way CMP, discontinuity, bypass)",
		"Configuration", "Workload", "Speedup vs matching baseline", "Off-chip transfers", "Writebacks")
	ws := []Workload{
		{Name: "DB", Apps: []string{"DB"}},
		{Name: "Mixed", Apps: []string{"DB", "TPC-W", "jApp", "Web"}},
	}
	for _, wb := range []bool{false, true} {
		label := "reads only (paper)"
		if wb {
			label = "with writebacks"
		}
		for _, w := range ws {
			base := e.mustRun(ctx, RunSpec{Workload: w, Cores: 4, Scheme: "none", ModelWritebacks: wb})
			r := e.mustRun(ctx, RunSpec{Workload: w, Cores: 4, Scheme: "discontinuity",
				Bypass: true, ModelWritebacks: wb})
			t.AddRow(label, w.Name,
				ratio(r.Total.IPC()/base.Total.IPC()),
				fmt.Sprintf("%d", r.OffChipTransfers),
				fmt.Sprintf("%d", r.Writebacks))
		}
	}
	return []*stats.Table{t}
}
