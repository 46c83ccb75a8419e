package sim

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/stats"
)

// figure1 reproduces the instruction-cache geometry sensitivity study:
// L1-I miss rate (% per instruction) as associativity, line size and
// capacity are varied around the 32 KB / 4-way / 64 B default.
func (e *Engine) figure1(ctx context.Context) []*stats.Table {
	type variant struct {
		label string
		cfg   cache.Config
	}
	base := cache.Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64}
	variants := []variant{
		{"Default (32KB 4-way 64B)", base},
		{"Direct-mapped", cache.Config{SizeBytes: 32 << 10, Assoc: 1, LineBytes: 64}},
		{"2-way", cache.Config{SizeBytes: 32 << 10, Assoc: 2, LineBytes: 64}},
		{"8-way", cache.Config{SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64}},
		{"32B line size", cache.Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 32}},
		{"128B line size", cache.Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 128}},
		{"256B line size", cache.Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 256}},
		{"16KB", cache.Config{SizeBytes: 16 << 10, Assoc: 4, LineBytes: 64}},
		{"64KB", cache.Config{SizeBytes: 64 << 10, Assoc: 4, LineBytes: 64}},
		{"128KB", cache.Config{SizeBytes: 128 << 10, Assoc: 4, LineBytes: 64}},
	}
	apps := PaperWorkloads(false)
	t := stats.NewTable("Figure 1: I$ miss rate (% per instruction) vs cache geometry (single core)",
		append([]string{"Configuration"}, workloadNames(apps)...)...)
	for _, v := range variants {
		row := []string{v.label}
		for _, w := range apps {
			r := e.mustRun(ctx, RunSpec{Workload: w, Cores: 1, Scheme: "none", L1I: v.cfg})
			row = append(row, fmt.Sprintf("%.3f", 100*r.Total.L1I.PerInstr(r.Total.Instructions)))
		}
		t.AddRow(row...)
	}
	return []*stats.Table{t}
}

// figure2 reproduces the L2 instruction miss rate study: single core vs
// 4-way CMP as the L2 capacity is varied (1/2/4 MB).
func (e *Engine) figure2(ctx context.Context) []*stats.Table {
	t := stats.NewTable("Figure 2: L2$ instruction miss rate (% per instruction)",
		append([]string{"Configuration"}, workloadNames(PaperWorkloads(true))...)...)
	for _, size := range []int{1 << 20, 2 << 20, 4 << 20} {
		for _, cores := range []int{1, 4} {
			label := fmt.Sprintf("%dMB %s", size>>20, machineName(cores))
			row := []string{label}
			for _, w := range PaperWorkloads(true) {
				if cores == 1 && len(w.Apps) > 1 {
					row = append(row, "-")
					continue
				}
				r := e.mustRun(ctx, RunSpec{
					Workload: w, Cores: cores, Scheme: "none",
					L2: cache.Config{SizeBytes: size, Assoc: 4, LineBytes: 64},
				})
				row = append(row, fmt.Sprintf("%.4f", 100*r.Total.L2I.PerInstr(r.Total.Instructions)))
			}
			t.AddRow(row...)
		}
	}
	return []*stats.Table{t}
}

// figure3 reproduces the miss-category breakdowns: (i) instruction cache
// (single core), (ii) L2 instruction misses (single core), (iii) L2
// instruction misses (4-way CMP).
func (e *Engine) figure3(ctx context.Context) []*stats.Table {
	categories := []isa.MissCategory{
		isa.MissSequential,
		isa.MissCondTakenFwd, isa.MissCondTakenBwd, isa.MissCondNotTaken,
		isa.MissUncondBranch,
		isa.MissCall, isa.MissJump, isa.MissReturn,
		isa.MissTrap,
	}
	breakTable := func(title string, cores int, l2 bool) *stats.Table {
		ws := PaperWorkloads(cores > 1)
		t := stats.NewTable(title, append([]string{"Category"}, workloadNames(ws)...)...)
		for _, c := range categories {
			row := []string{c.String()}
			for _, w := range ws {
				r := e.baseline(ctx, w, cores)
				bd := &r.Total.L1IMissBreakdown
				if l2 {
					bd = &r.Total.L2IMissBreakdown
				}
				row = append(row, pct(bd.Fraction(c), 1))
			}
			t.AddRow(row...)
		}
		// Super-category summary rows.
		for s := 0; s < isa.NumSuperCategories; s++ {
			row := []string{"TOTAL " + isa.SuperCategory(s).String()}
			for _, w := range ws {
				r := e.baseline(ctx, w, cores)
				bd := &r.Total.L1IMissBreakdown
				if l2 {
					bd = &r.Total.L2IMissBreakdown
				}
				row = append(row, pct(bd.SuperFraction(isa.SuperCategory(s)), 1))
			}
			t.AddRow(row...)
		}
		return t
	}
	return []*stats.Table{
		breakTable("Figure 3(i): Instruction cache miss breakdown (single core)", 1, false),
		breakTable("Figure 3(ii): L2 cache instruction miss breakdown (single core)", 1, true),
		breakTable("Figure 3(iii): L2 cache instruction miss breakdown (4-way CMP)", 4, true),
	}
}

// figure4 reproduces the limits study: performance improvement from
// oracle-eliminating classes of instruction misses.
func (e *Engine) figure4(ctx context.Context) []*stats.Table {
	type combo struct {
		label  string
		supers []isa.SuperCategory
	}
	combos := []combo{
		{"Sequential only", []isa.SuperCategory{isa.SuperSequential}},
		{"Branch only", []isa.SuperCategory{isa.SuperBranch}},
		{"Function only", []isa.SuperCategory{isa.SuperFunction}},
		{"Sequential + Branch", []isa.SuperCategory{isa.SuperSequential, isa.SuperBranch}},
		{"Sequential + Function", []isa.SuperCategory{isa.SuperSequential, isa.SuperFunction}},
		{"Sequential + Branch + Function", []isa.SuperCategory{isa.SuperSequential, isa.SuperBranch, isa.SuperFunction}},
	}
	oracleTable := func(title string, cores int) *stats.Table {
		ws := PaperWorkloads(cores > 1)
		t := stats.NewTable(title, append([]string{"Misses eliminated"}, workloadNames(ws)...)...)
		for _, c := range combos {
			var oracle [isa.NumSuperCategories]bool
			for _, s := range c.supers {
				oracle[s] = true
			}
			row := []string{c.label}
			for _, w := range ws {
				base := e.baseline(ctx, w, cores)
				r := e.mustRun(ctx, RunSpec{Workload: w, Cores: cores, Scheme: "none", Oracle: oracle})
				row = append(row, ratio(r.Total.IPC()/base.Total.IPC()))
			}
			t.AddRow(row...)
		}
		return t
	}
	return []*stats.Table{
		oracleTable("Figure 4(i): Speedup from eliminating instruction misses (single core)", 1),
		oracleTable("Figure 4(ii): Speedup from eliminating instruction misses (4-way CMP)", 4),
	}
}

func workloadNames(ws []Workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

func machineName(cores int) string {
	if cores == 1 {
		return "single core"
	}
	return fmt.Sprintf("%d-way CMP", cores)
}
