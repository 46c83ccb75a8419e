// Package sweep is the design-space-exploration subsystem: a
// declarative Spec describes axes of the paper's evaluation space
// (prefetch scheme, discontinuity table size, prefetch-ahead depth,
// workload, cache geometry, core count) and expands into a
// deterministic cartesian grid of simulation points; a Runner shards
// the grid across a bounded worker pool over sim.Engine.RunContext,
// checkpoints every completed point to a content-addressed on-disk
// Journal so an interrupted sweep resumes without recomputation, and
// aggregates per-point results into stats.Table plus CSV/JSON
// artifacts (speedup vs. baseline, miss-rate reduction, pareto-front
// extraction over table-size-bits vs. speedup).
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/codesign"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// MaxPoints bounds a single sweep's grid so a malformed spec cannot
// wedge a shared daemon.
const MaxPoints = 4096

// Geometry is the wire form of a cache geometry axis value. The zero
// value means "machine default".
type Geometry struct {
	SizeBytes int `json:"size_bytes"`
	Assoc     int `json:"assoc"`
	LineBytes int `json:"line_bytes"`
}

// IsZero reports whether the geometry is the machine default.
func (g Geometry) IsZero() bool { return g == Geometry{} }

// Config converts the wire geometry to the cache layer's config.
func (g Geometry) Config() cache.Config {
	return cache.Config{SizeBytes: g.SizeBytes, Assoc: g.Assoc, LineBytes: g.LineBytes}
}

func (g Geometry) String() string {
	if g.IsZero() {
		return "default"
	}
	return fmt.Sprintf("%dKB/%dw/%dB", g.SizeBytes>>10, g.Assoc, g.LineBytes)
}

// Spec declares a design-space sweep. Every axis slice is crossed with
// every other; empty axes take the stated single default value, so the
// minimal useful spec names only schemes and workloads.
type Spec struct {
	// Name labels the sweep in artifacts and logs.
	Name string `json:"name,omitempty"`

	// Schemes lists prefetcher registry names (see
	// prefetch.SchemeNames). Required.
	Schemes []string `json:"schemes"`
	// Workloads lists paper workload columns ("DB", "TPC-W", "jApp",
	// "Web", "Mixed"; Mixed needs Cores > 1). Required.
	Workloads []string `json:"workloads"`
	// Cores lists machine widths. Default: [4] (the paper CMP).
	Cores []int `json:"cores,omitempty"`
	// Bypass lists Section 7 install policies. Default: [true].
	Bypass []bool `json:"bypass,omitempty"`
	// TableEntries sweeps the discontinuity table size; 0 keeps the
	// scheme default. Applied only to discontinuity-family schemes
	// (other schemes collapse to one point on this axis). Default: [0].
	TableEntries []int `json:"table_entries,omitempty"`
	// PrefetchAhead sweeps the prefetch-ahead distance N; 0 keeps the
	// scheme default. Discontinuity-family only, like TableEntries.
	// Default: [0].
	PrefetchAhead []int `json:"prefetch_ahead,omitempty"`
	// L1I / L2 sweep cache geometries; the zero geometry keeps the
	// machine default. Defaults: [default].
	L1I []Geometry `json:"l1i,omitempty"`
	L2  []Geometry `json:"l2,omitempty"`

	// Inserts sweeps the prefetched-line insertion policy ("mru",
	// "mid", "lru"; see codesign.ParseInsertion). Values are
	// canonicalised during expansion, so "mru" and "" land on the same
	// point. Default: [""] (historical MRU behaviour).
	Inserts []string `json:"inserts,omitempty"`
	// TLBFills sweeps prefetch-triggered I-TLB fill ("none",
	// "primary", "secondary"; see codesign.ParseTLBFill). Default:
	// [""] (no TLB fill).
	TLBFills []string `json:"tlb_fills,omitempty"`
	// WrongPaths sweeps wrong-path fetch modelling ("off",
	// "train[:depth]", "pollute[:depth]"; see codesign.ParseWrongPath).
	// Default: [""] (off).
	WrongPaths []string `json:"wrong_paths,omitempty"`

	// BaselineScheme is the scheme speedups and miss-rate reductions
	// are normalised against (default "none"). A baseline point (no
	// bypass, default table) is appended to the grid for every
	// workload × cores × geometry combination that lacks one.
	BaselineScheme string `json:"baseline_scheme,omitempty"`

	// ForkWarm switches every point to the fork-and-diverge
	// methodology: points sharing a scheme-neutral warm phase run it
	// once, snapshot the machine, and diverge from restored copies (see
	// sim.Engine.RunBatchContext). Default off — the historical
	// cold-warm-per-point schedule. Part of every point's identity, so
	// fork and cold journals never alias.
	ForkWarm bool `json:"fork_warm,omitempty"`

	// WarmInstrs / MeasureInstrs / Seed pin the budgets every point
	// runs under; zero takes the executing engine's values.
	WarmInstrs    uint64 `json:"warm_instrs,omitempty"`
	MeasureInstrs uint64 `json:"measure_instrs,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
}

// Budgets returns the budgets the spec pins, as a run spec for
// sim.Engine.Resolve to complete with the engine's defaults.
func (s Spec) Budgets() sim.RunSpec {
	return sim.RunSpec{WarmInstrs: s.WarmInstrs, MeasureInstrs: s.MeasureInstrs, Seed: s.Seed}
}

// Point is one cell of the expanded grid — the sweep-layer analogue of
// a service job spec, resolvable to a sim.RunSpec.
type Point struct {
	// Index is the point's position in the deterministic grid order.
	Index int `json:"index"`

	Workload      string    `json:"workload"`
	Cores         int       `json:"cores"`
	Scheme        string    `json:"scheme"`
	Bypass        bool      `json:"bypass,omitempty"`
	TableEntries  int       `json:"table_entries,omitempty"`
	PrefetchAhead int       `json:"prefetch_ahead,omitempty"`
	Insert        string    `json:"insert,omitempty"`
	TLBFill       string    `json:"tlb_fill,omitempty"`
	WrongPath     string    `json:"wrong_path,omitempty"`
	L1I           *Geometry `json:"l1i,omitempty"`
	L2            *Geometry `json:"l2,omitempty"`

	// Baseline marks the normalisation point of the point's
	// workload × cores × geometry group.
	Baseline bool `json:"baseline,omitempty"`

	// ForkWarm carries the sweep's fork-and-diverge setting into the
	// point identity (omitted when false, so historical journal keys
	// and sweep IDs are unchanged).
	ForkWarm bool `json:"fork_warm,omitempty"`
}

// RunSpec resolves the point to the engine's run spec.
func (p Point) RunSpec() (sim.RunSpec, error) {
	w, ok := sim.WorkloadByName(p.Workload, p.Cores > 1)
	if !ok {
		return sim.RunSpec{}, fmt.Errorf("sweep: unknown workload %q for %d cores", p.Workload, p.Cores)
	}
	rs := sim.RunSpec{
		Workload:      w,
		Cores:         p.Cores,
		Scheme:        p.Scheme,
		Bypass:        p.Bypass,
		TableEntries:  p.TableEntries,
		PrefetchAhead: p.PrefetchAhead,
		InsertPolicy:  p.Insert,
		TLBFill:       p.TLBFill,
		WrongPath:     p.WrongPath,
		ForkWarm:      p.ForkWarm,
	}
	if p.L1I != nil {
		rs.L1I = p.L1I.Config()
	}
	if p.L2 != nil {
		rs.L2 = p.L2.Config()
	}
	return rs, nil
}

// Key returns the point's run key (sim.RunSpec.Key) under the given
// budgets, the identity the service's result store uses too.
func (p Point) Key(warm, measure, seed uint64) (string, error) {
	rs, err := p.RunSpec()
	if err != nil {
		return "", err
	}
	rs.WarmInstrs, rs.MeasureInstrs, rs.Seed = warm, measure, seed
	return rs.Key(), nil
}

// groupKey identifies the point's normalisation group (everything but
// the prefetcher axes).
func (p Point) groupKey() string {
	return fmt.Sprintf("%s|%d|%v|%v", p.Workload, p.Cores, p.L1I, p.L2)
}

// ContentAddress hashes a canonical key into a journal file name.
func ContentAddress(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// tableScheme reports whether the scheme consumes the discontinuity
// table axes. Other schemes ignore TableEntries/PrefetchAhead, so the
// expansion collapses those axis values to zero for them.
func tableScheme(scheme string) bool { return strings.HasPrefix(scheme, "discont") }

// baselineScheme resolves the spec's normalisation scheme.
func (s Spec) baselineScheme() string {
	if s.BaselineScheme != "" {
		return s.BaselineScheme
	}
	return "none"
}

// axes returns the spec's axes with defaults applied.
func (s Spec) axes() (cores []int, bypass []bool, tables, ahead []int, inserts, tlbFills, wrongPaths []string, l1i, l2 []Geometry) {
	cores = s.Cores
	if len(cores) == 0 {
		cores = []int{4}
	}
	bypass = s.Bypass
	if len(bypass) == 0 {
		bypass = []bool{true}
	}
	tables = s.TableEntries
	if len(tables) == 0 {
		tables = []int{0}
	}
	ahead = s.PrefetchAhead
	if len(ahead) == 0 {
		ahead = []int{0}
	}
	inserts = s.Inserts
	if len(inserts) == 0 {
		inserts = []string{""}
	}
	tlbFills = s.TLBFills
	if len(tlbFills) == 0 {
		tlbFills = []string{""}
	}
	wrongPaths = s.WrongPaths
	if len(wrongPaths) == 0 {
		wrongPaths = []string{""}
	}
	l1i = s.L1I
	if len(l1i) == 0 {
		l1i = []Geometry{{}}
	}
	l2 = s.L2
	if len(l2) == 0 {
		l2 = []Geometry{{}}
	}
	return
}

// Validate reports problems that make the spec unexpandable or
// unrunnable, without simulating anything.
func (s Spec) Validate() error {
	if len(s.Schemes) == 0 {
		return fmt.Errorf("sweep: schemes axis is required")
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("sweep: workloads axis is required")
	}
	for _, w := range s.Workloads {
		if _, ok := CorpusSelector(w); ok {
			// Selector workloads are environment-dependent until expanded
			// against a corpus index; letting one reach the grid would
			// give the sweep a different meaning on every daemon.
			return fmt.Errorf("sweep: workload %q must be expanded with Spec.Normalize before validation", w)
		}
	}
	for _, scheme := range append([]string{s.baselineScheme()}, s.Schemes...) {
		if _, err := prefetch.New(scheme); err != nil {
			return err
		}
	}
	cores, _, tables, ahead, inserts, tlbFills, wrongPaths, l1i, l2 := s.axes()
	for _, c := range cores {
		if c < 1 || c > 64 {
			return fmt.Errorf("sweep: cores must be in [1,64], got %d", c)
		}
		for _, w := range s.Workloads {
			if _, ok := sim.WorkloadByName(w, c > 1); !ok {
				return fmt.Errorf("sweep: unknown workload %q for %d cores", w, c)
			}
		}
	}
	for _, n := range tables {
		if n < 0 || (n > 0 && n&(n-1) != 0) {
			return fmt.Errorf("sweep: table entries %d not zero or a power of two", n)
		}
	}
	for _, n := range ahead {
		if n < 0 {
			return fmt.Errorf("sweep: prefetch-ahead %d must be >= 0", n)
		}
	}
	for _, v := range inserts {
		if _, err := codesign.CanonicalInsertion(v); err != nil {
			return err
		}
	}
	for _, v := range tlbFills {
		if _, err := codesign.CanonicalTLBFill(v); err != nil {
			return err
		}
	}
	for _, v := range wrongPaths {
		if _, err := codesign.CanonicalWrongPath(v); err != nil {
			return err
		}
	}
	for _, g := range append(append([]Geometry{}, l1i...), l2...) {
		if !g.IsZero() {
			if err := g.Config().Validate(); err != nil {
				return err
			}
		}
	}
	if s.GridSize() > MaxPoints {
		return fmt.Errorf("sweep: grid has more than %d points", MaxPoints)
	}
	return nil
}

// GridSize returns the raw cartesian size before dedup and baseline
// insertion — an upper bound on the expanded grid. A size above
// MaxPoints saturates at MaxPoints+1, so eleven long axes cannot
// overflow the product into a small number that passes Validate.
func (s Spec) GridSize() int {
	cores, bypass, tables, ahead, inserts, tlbFills, wrongPaths, l1i, l2 := s.axes()
	// Only the workload and scheme axes can be empty (the others default
	// to one value), so they come first: an empty one zeroes the product
	// before it can saturate.
	n := 1
	for _, l := range []int{len(s.Workloads), len(s.Schemes), len(cores), len(bypass),
		len(tables), len(ahead), len(inserts), len(tlbFills), len(wrongPaths),
		len(l1i), len(l2)} {
		if n *= l; n > MaxPoints {
			return MaxPoints + 1
		}
	}
	return n
}

// Expand materialises the deterministic grid: the cartesian product of
// every axis in fixed nesting order (workload, cores, scheme, bypass,
// table entries, prefetch-ahead, insertion policy, TLB fill, wrong
// path, L1-I geometry, L2 geometry), with duplicate simulation points
// removed (first occurrence wins) and a baseline point appended for
// every normalisation group that lacks one. Co-design axis values are
// canonicalised (defaults collapse to ""), so spelling a default
// explicitly never mints a second point. Equal specs always expand to
// equal grids.
func (s Spec) Expand() ([]Point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cores, bypass, tables, ahead, inserts, tlbFills, wrongPaths, l1i, l2 := s.axes()

	var points []Point
	seen := make(map[string]int) // simulation key (budget-free) -> points index
	add := func(p Point) {
		key, err := p.Key(0, 0, 0)
		if err != nil {
			return // Validate already vetted the axes; unreachable
		}
		if i, ok := seen[key]; ok {
			if p.Baseline {
				points[i].Baseline = true
			}
			return
		}
		p.Index = len(points)
		seen[key] = p.Index
		points = append(points, p)
	}

	geomPtr := func(g Geometry) *Geometry {
		if g.IsZero() {
			return nil
		}
		gg := g
		return &gg
	}

	for _, w := range s.Workloads {
		for _, c := range cores {
			for _, scheme := range s.Schemes {
				for _, bp := range bypass {
					for _, te := range tables {
						for _, pa := range ahead {
							if !tableScheme(scheme) {
								// The axes are no-ops for this scheme:
								// collapse to one point (dedup keeps
								// the first occurrence).
								te, pa = 0, 0
							}
							for _, insRaw := range inserts {
								// Validate vetted the axis values, so the
								// canonicalisation errors are unreachable.
								ins, _ := codesign.CanonicalInsertion(insRaw)
								for _, tfRaw := range tlbFills {
									tf, _ := codesign.CanonicalTLBFill(tfRaw)
									for _, wpRaw := range wrongPaths {
										wp, _ := codesign.CanonicalWrongPath(wpRaw)
										for _, g1 := range l1i {
											for _, g2 := range l2 {
												add(Point{
													Workload: w, Cores: c, Scheme: scheme, Bypass: bp,
													TableEntries: te, PrefetchAhead: pa,
													Insert: ins, TLBFill: tf, WrongPath: wp,
													L1I: geomPtr(g1), L2: geomPtr(g2),
													ForkWarm: s.ForkWarm,
													Baseline: scheme == s.baselineScheme() && !bp && te == 0 && pa == 0 &&
														ins == "" && tf == "" && wp == "",
												})
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	// Ensure every normalisation group has its baseline point.
	base := s.baselineScheme()
	for _, w := range s.Workloads {
		for _, c := range cores {
			for _, g1 := range l1i {
				for _, g2 := range l2 {
					add(Point{
						Workload: w, Cores: c, Scheme: base,
						L1I: geomPtr(g1), L2: geomPtr(g2),
						ForkWarm: s.ForkWarm, Baseline: true,
					})
				}
			}
		}
	}
	if len(points) > MaxPoints {
		return nil, fmt.Errorf("sweep: grid has %d points after baseline insertion, max %d", len(points), MaxPoints)
	}
	return points, nil
}

// canonical returns the spec's canonical JSON, the basis of sweep
// identity (journal directories, daemon sweep ids).
func (s Spec) canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("sweep: canonicalise spec: %v", err))
	}
	return b
}

// ID returns a stable content-derived identifier for the sweep under
// the given engine budgets: equal specs on equal budgets share an ID
// (and therefore a journal), so resubmission after a crash or restart
// resumes instead of recomputing.
func (s Spec) ID(warm, measure, seed uint64) string {
	budgets := sim.RunSpec{WarmInstrs: warm, MeasureInstrs: measure, Seed: seed}.BudgetKey()
	sum := sha256.Sum256(append(s.canonical(), budgets...))
	return "sweep-" + hex.EncodeToString(sum[:])[:12]
}
