// Package workload synthesises the instruction-fetch and data-access
// streams of the paper's four commercial applications.
//
// The real traces (a proprietary database, TPC-W, SPECjAppServer2002 and
// SPECweb99 captured on SPARC hardware) are not available, so each
// application is modelled statistically: a static program image — a few
// thousand functions laid out by a link-time-style layout, each composed
// of small basic blocks with statically assigned terminators (conditional
// branches with per-site bias, direct calls with static callees, indirect
// tail-call jumps, early returns, rare traps) — walked by a seeded
// call-graph random walk that emits dynamic basic blocks.
//
// What matters for the paper's mechanisms is preserved by construction:
//
//   - instruction footprints far larger than L1-I and comparable to the
//     shared L2, with Zipf-skewed reuse;
//   - short sequential runs punctuated by CTIs whose target-distance
//     distribution separates "small" discontinuities (taken branches
//     within a few lines, covered by next-N-line prefetch) from "large"
//     ones (calls/returns/tail-calls to distant functions, needing the
//     discontinuity predictor);
//   - stable line-granular transitions at static call sites, which is
//     what makes a history-based discontinuity table learnable;
//   - a data-access stream with an L2-resident hot set, so that
//     instruction prefetches installed into the unified L2 evict useful
//     data (the pollution effect of Section 6).
//
// Profiles are calibrated against the paper's Figures 1–3 (see
// EXPERIMENTS.md for measured-vs-paper numbers).
package workload

import "fmt"

// Profile parameterises one application's synthetic model. The zero
// value is not useful; start from one of DB/TPCW/JApp/Web.
type Profile struct {
	// Name identifies the application in reports ("DB", "TPC-W", ...).
	Name string

	// Seed gives each application its own base random stream, so two
	// profiles with identical shape parameters still produce distinct
	// programs.
	Seed uint64

	// NumFuncs is the number of user functions in the program image.
	NumFuncs int
	// FuncBlocksMean/FuncBlocksMin shape the per-function basic-block
	// count (geometric above the minimum).
	FuncBlocksMean int
	FuncBlocksMin  int
	// BlockInstrsMean/BlockInstrsMin shape basic-block sizes in
	// instructions (geometric above the minimum). Commercial code has
	// small blocks (~5-8 instructions).
	BlockInstrsMean int
	BlockInstrsMin  int
	// FuncAlignBytes aligns function entry points (models linker
	// alignment).
	FuncAlignBytes int

	// PopularityS is the Zipf exponent of top-level dispatch popularity;
	// smaller values mean a flatter, larger hot set.
	PopularityS float64
	// CalleeS is the Zipf exponent used when assigning static callees,
	// fixed separately from PopularityS so that tuning the dispatch skew
	// does not regenerate the call graph.
	CalleeS float64
	// CalleesMean is the mean size of a function's static callee set.
	CalleesMean int

	// Terminator mix for interior basic blocks (relative weights; the
	// remainder after these falls through sequentially).
	WFall, WCond, WUncond, WCall, WJump, WRetEarly, WTrap float64

	// PCondBwd is the fraction of conditional branch sites that are
	// backward (loop) branches.
	PCondBwd float64
	// PCondFwdTaken is the fraction of forward conditional sites that
	// are strongly taken-biased. Site biases are bimodal — strongly
	// taken (~0.9), strongly not-taken (~0.08) or hard (~0.5) — which is
	// what makes real branches learnable by a gshare predictor while
	// still leaving a realistic mispredict floor.
	PCondFwdTaken float64
	// PLoopContinue is the taken probability of backward (loop) sites.
	PLoopContinue float64
	// CondFwdDistMean is the mean forward branch distance in blocks.
	CondFwdDistMean int
	// UncondDistMean is the mean unconditional branch distance in blocks.
	UncondDistMean int

	// MaxCallDepth bounds the call stack; call sites reached at the
	// bound fall through instead (rare).
	MaxCallDepth int

	// TransactionInstrs is the mean transaction length in instructions.
	// Once a transaction's budget is spent, the next return unwinds all
	// the way to the dispatch loop, which starts a fresh transaction at a
	// fresh Zipf-drawn entry point. This renewal makes the dynamic
	// working set track function popularity (and matches how the
	// modelled applications behave — all four are transaction-oriented,
	// as the paper notes in Section 5).
	TransactionInstrs int

	// KernelFuncs is the number of trap-handler functions in the kernel
	// region.
	KernelFuncs int

	// Data side: per-instruction load/store probabilities and the
	// address-stream shape.
	LoadsPerInstr  float64
	StoresPerInstr float64
	// StackBytes is the per-process stack region (almost always hits
	// the L1-D).
	StackBytes int
	// NearDataBytes is the tight per-transaction working set (roughly
	// L1-D sized), Zipf-referenced.
	NearDataBytes int
	// HotDataBytes is the larger L2-resident heap/global region — the
	// part of the data working set that competes with instructions for
	// L2 capacity and suffers when prefetches pollute the L2.
	HotDataBytes int
	// ColdDataBytes is the uniformly-referenced cold region (always
	// misses L2).
	ColdDataBytes int
	// PStack/PNear/PFar are the probabilities a memory operation targets
	// the stack, near or hot region (the remainder goes to cold).
	PStack, PNear, PFar float64
	// DataZipfS is the Zipf exponent over hot (far) region lines.
	DataZipfS float64
	// NearZipfS is the Zipf exponent over near-region lines; steeper
	// than DataZipfS so the L1-D captures most of the near traffic while
	// the region's tail still occupies shared-L2 capacity per thread.
	NearZipfS float64
}

// maxGeometricMean caps the means of the geometrically distributed
// shape parameters (block counts, block sizes, branch distances). A
// draw can exceed its mean several hundredfold, and near 1<<53 the
// sampler's success probability rounds away entirely, so unbounded
// means overflow int into negative sizes and targets.
const maxGeometricMean = 1 << 20

// Validate reports whether the profile is internally consistent. A
// profile it accepts builds, and its threads generate, without
// panicking.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile has no name")
	}
	if p.NumFuncs < 2 {
		return fmt.Errorf("workload: %s: need at least 2 functions", p.Name)
	}
	if p.FuncBlocksMin < 2 {
		return fmt.Errorf("workload: %s: functions need >= 2 blocks (entry + return)", p.Name)
	}
	if p.FuncBlocksMean < p.FuncBlocksMin {
		return fmt.Errorf("workload: %s: mean blocks %d < min %d", p.Name, p.FuncBlocksMean, p.FuncBlocksMin)
	}
	if p.BlockInstrsMin < 1 || p.BlockInstrsMean < p.BlockInstrsMin {
		return fmt.Errorf("workload: %s: bad block size params", p.Name)
	}
	if p.FuncAlignBytes <= 0 || p.FuncAlignBytes&(p.FuncAlignBytes-1) != 0 {
		return fmt.Errorf("workload: %s: alignment must be a power of two", p.Name)
	}
	if !(p.PopularityS > 0) || !(p.CalleeS > 0) {
		return fmt.Errorf("workload: %s: popularity exponents must be positive", p.Name)
	}
	if p.CalleesMean < 1 {
		return fmt.Errorf("workload: %s: CalleesMean must be >= 1", p.Name)
	}
	sum := 0.0
	for _, w := range []float64{p.WFall, p.WCond, p.WUncond, p.WCall, p.WJump, p.WRetEarly, p.WTrap} {
		if !(w >= 0) {
			return fmt.Errorf("workload: %s: terminator weights must be >= 0", p.Name)
		}
		sum += w
	}
	if sum <= 0 {
		return fmt.Errorf("workload: %s: terminator weights sum to zero", p.Name)
	}
	for _, pr := range []float64{p.PCondBwd, p.PCondFwdTaken, p.PLoopContinue, p.PStack, p.PNear,
		p.PFar, p.LoadsPerInstr, p.StoresPerInstr} {
		if !(pr >= 0 && pr <= 1) {
			return fmt.Errorf("workload: %s: probability out of range", p.Name)
		}
	}
	if p.PStack+p.PNear+p.PFar > 1 {
		return fmt.Errorf("workload: %s: PStack+PNear+PFar > 1", p.Name)
	}
	if p.MaxCallDepth < 1 {
		return fmt.Errorf("workload: %s: MaxCallDepth must be >= 1", p.Name)
	}
	if p.TransactionInstrs < 1 {
		return fmt.Errorf("workload: %s: TransactionInstrs must be >= 1", p.Name)
	}
	if p.KernelFuncs < 1 {
		return fmt.Errorf("workload: %s: need at least one trap handler", p.Name)
	}
	if p.StackBytes <= 0 || p.NearDataBytes <= 0 || p.HotDataBytes <= 0 || p.ColdDataBytes <= 0 {
		return fmt.Errorf("workload: %s: data regions must be positive", p.Name)
	}
	if p.NearDataBytes < dataLineBytes || p.HotDataBytes < dataLineBytes {
		return fmt.Errorf("workload: %s: near and hot data regions must hold at least one %d-byte line", p.Name, dataLineBytes)
	}
	if !(p.DataZipfS > 0) || !(p.NearZipfS > 0) {
		return fmt.Errorf("workload: %s: data Zipf exponents must be positive", p.Name)
	}
	if p.CondFwdDistMean < 1 || p.UncondDistMean < 1 {
		return fmt.Errorf("workload: %s: branch distances must be >= 1", p.Name)
	}
	for _, m := range []int{p.FuncBlocksMean, p.BlockInstrsMean, p.CondFwdDistMean, p.UncondDistMean} {
		if m > maxGeometricMean {
			return fmt.Errorf("workload: %s: block counts, block sizes and branch distances must be <= %d", p.Name, maxGeometricMean)
		}
	}
	return nil
}

// DB models an on-line transaction processing database: a very large
// code footprint, deep call chains, and a large hot data set.
func DB() Profile {
	return Profile{
		Name: "DB", Seed: 0xdb,
		NumFuncs: 7000, FuncBlocksMean: 18, FuncBlocksMin: 3,
		BlockInstrsMean: 9, BlockInstrsMin: 3, FuncAlignBytes: 32,
		PopularityS: 0.85, CalleeS: 0.90, CalleesMean: 5,
		WFall: 0.14, WCond: 0.44, WUncond: 0.10, WCall: 0.21, WJump: 0.035,
		WRetEarly: 0.05, WTrap: 0.0015,
		PCondBwd: 0.10, PCondFwdTaken: 0.52, PLoopContinue: 0.70,
		CondFwdDistMean: 3, UncondDistMean: 6,
		MaxCallDepth: 48, KernelFuncs: 24,
		TransactionInstrs: 25000,
		LoadsPerInstr:     0.26, StoresPerInstr: 0.09,
		StackBytes: 16 << 10, NearDataBytes: 256 << 10, HotDataBytes: 2 << 20,
		ColdDataBytes: 16 << 20,
		PStack:        0.52, PNear: 0.40, PFar: 0.072, DataZipfS: 0.90, NearZipfS: 1.30,
	}
}

// TPCW models the TPC-W transactional web benchmark: the most
// cache-friendly of the four (smallest hot instruction set).
func TPCW() Profile {
	return Profile{
		Name: "TPC-W", Seed: 0x79c3,
		NumFuncs: 4500, FuncBlocksMean: 16, FuncBlocksMin: 3,
		BlockInstrsMean: 9, BlockInstrsMin: 3, FuncAlignBytes: 32,
		PopularityS: 1.00, CalleeS: 0.88, CalleesMean: 4,
		WFall: 0.17, WCond: 0.44, WUncond: 0.10, WCall: 0.18, WJump: 0.04,
		WRetEarly: 0.06, WTrap: 0.0005,
		PCondBwd: 0.12, PCondFwdTaken: 0.50, PLoopContinue: 0.70,
		CondFwdDistMean: 3, UncondDistMean: 6,
		MaxCallDepth: 40, KernelFuncs: 20,
		TransactionInstrs: 20000,
		LoadsPerInstr:     0.25, StoresPerInstr: 0.10,
		StackBytes: 16 << 10, NearDataBytes: 192 << 10, HotDataBytes: 2560 << 10,
		ColdDataBytes: 16 << 20,
		PStack:        0.50, PNear: 0.40, PFar: 0.094, DataZipfS: 0.85, NearZipfS: 1.30,
	}
}

// JApp models SPECjAppServer2002, a Java application server: the largest,
// flattest instruction working set (JIT-compiled middleware), many small
// methods, the highest miss rates of the four.
func JApp() Profile {
	return Profile{
		Name: "jApp", Seed: 0x14bb,
		NumFuncs: 9000, FuncBlocksMean: 13, FuncBlocksMin: 3,
		BlockInstrsMean: 8, BlockInstrsMin: 3, FuncAlignBytes: 32,
		PopularityS: 0.85, CalleeS: 0.70, CalleesMean: 6,
		WFall: 0.12, WCond: 0.42, WUncond: 0.10, WCall: 0.25, WJump: 0.04,
		WRetEarly: 0.055, WTrap: 0.001,
		PCondBwd: 0.08, PCondFwdTaken: 0.54, PLoopContinue: 0.70,
		CondFwdDistMean: 3, UncondDistMean: 6,
		MaxCallDepth: 64, KernelFuncs: 24,
		TransactionInstrs: 15000,
		LoadsPerInstr:     0.27, StoresPerInstr: 0.10,
		StackBytes: 24 << 10, NearDataBytes: 256 << 10, HotDataBytes: 1536 << 10,
		ColdDataBytes: 16 << 20,
		PStack:        0.52, PNear: 0.40, PFar: 0.074, DataZipfS: 0.90, NearZipfS: 1.25,
	}
}

// Web models SPECweb99, a static/dynamic-content web server: a moderate
// L1-I working set but a steeply skewed footprint whose hot code largely
// fits in the L2 (the paper's Figure 2 shows Web with by far the lowest
// L2 instruction miss rate).
func Web() Profile {
	return Profile{
		Name: "Web", Seed: 0x3eb,
		NumFuncs: 3200, FuncBlocksMean: 15, FuncBlocksMin: 3,
		BlockInstrsMean: 9, BlockInstrsMin: 3, FuncAlignBytes: 32,
		PopularityS: 0.92, CalleeS: 0.91, CalleesMean: 4,
		WFall: 0.16, WCond: 0.45, WUncond: 0.10, WCall: 0.18, WJump: 0.03,
		WRetEarly: 0.06, WTrap: 0.002,
		PCondBwd: 0.12, PCondFwdTaken: 0.52, PLoopContinue: 0.70,
		CondFwdDistMean: 3, UncondDistMean: 6,
		MaxCallDepth: 40, KernelFuncs: 20,
		TransactionInstrs: 8000,
		LoadsPerInstr:     0.24, StoresPerInstr: 0.09,
		StackBytes: 16 << 10, NearDataBytes: 128 << 10, HotDataBytes: 1 << 20,
		ColdDataBytes: 12 << 20,
		PStack:        0.54, PNear: 0.40, PFar: 0.056, DataZipfS: 0.95, NearZipfS: 1.35,
	}
}

// Profiles returns the paper's four applications in presentation order.
func Profiles() []Profile {
	return []Profile{DB(), TPCW(), JApp(), Web()}
}

// ByName returns the profile with the given name (case-sensitive, as
// reported by Profiles), a foundry profile (Microservice/Serverless),
// or the SPEC negative control.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	for _, p := range FoundryProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	if spec := SPECControl(); name == spec.Name {
		return spec, nil
	}
	return Profile{}, fmt.Errorf("workload: unknown application %q", name)
}

// Names returns the application names in presentation order.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// SPECControl models a SPEC CPU2000-like compute benchmark as a negative
// control: the paper's introduction observes that SPEC's instruction
// working sets "fit comfortably" in modern L1 instruction caches, making
// instruction prefetching irrelevant there. This profile has a small,
// loop-heavy code footprint so the simulator should show near-zero
// instruction miss rates and no prefetching gains — the opposite regime
// from the four commercial applications.
//
// It is reachable via ByName("SPEC") but is deliberately not part of
// Profiles(), which enumerates the paper's charted workloads.
func SPECControl() Profile {
	return Profile{
		Name: "SPEC", Seed: 0x5bec,
		NumFuncs: 120, FuncBlocksMean: 24, FuncBlocksMin: 4,
		BlockInstrsMean: 12, BlockInstrsMin: 4, FuncAlignBytes: 32,
		PopularityS: 1.4, CalleeS: 1.4, CalleesMean: 3,
		WFall: 0.20, WCond: 0.50, WUncond: 0.08, WCall: 0.08, WJump: 0.01,
		WRetEarly: 0.03, WTrap: 0.0002,
		PCondBwd: 0.45, PCondFwdTaken: 0.50, PLoopContinue: 0.90,
		CondFwdDistMean: 3, UncondDistMean: 5,
		MaxCallDepth: 24, KernelFuncs: 8,
		TransactionInstrs: 200000,
		LoadsPerInstr:     0.28, StoresPerInstr: 0.10,
		StackBytes: 8 << 10, NearDataBytes: 64 << 10, HotDataBytes: 1 << 20,
		ColdDataBytes: 8 << 20,
		PStack:        0.30, PNear: 0.55, PFar: 0.13, DataZipfS: 0.80, NearZipfS: 1.1,
	}
}
