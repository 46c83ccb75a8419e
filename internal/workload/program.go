package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/rng"
)

// TermKind is the statically assigned terminator of a basic block.
type TermKind uint8

const (
	// TermFall: run into the next block.
	TermFall TermKind = iota
	// TermCond: conditional branch with a static direction, target and
	// per-site taken bias.
	TermCond
	// TermUncond: unconditional branch to a static in-function target.
	TermUncond
	// TermCall: direct call to a static callee function.
	TermCall
	// TermJump: indirect tail-call jump to one of a small static set of
	// target functions (models switch dispatch / vtable tail calls).
	TermJump
	// TermRet: return to the caller (always the last block; also used
	// for early returns).
	TermRet
	// TermTrap: software trap to a static kernel handler.
	TermTrap
)

// StaticBlock is one basic block of the program image.
type StaticBlock struct {
	// PC is the address of the first instruction.
	PC isa.Addr
	// NumInstrs is the block length in instructions.
	NumInstrs int
	// Term is the statically assigned terminator.
	Term TermKind
	// TakenProb is the per-site taken bias (TermCond only).
	TakenProb float64
	// Backward marks a loop (backward) conditional (TermCond only).
	Backward bool
	// Target is the in-function target block index (TermCond/TermUncond).
	Target int32
	// Callee is the callee function index (TermCall) or handler index
	// (TermTrap).
	Callee int32
	// JumpTargets are candidate target function indices (TermJump).
	JumpTargets []int32
}

// Function is one function of the program image.
type Function struct {
	// Index is the function's position in Program.Funcs.
	Index int
	// Entry is the address of block 0.
	Entry isa.Addr
	// Blocks are laid out contiguously from Entry.
	Blocks []StaticBlock
	// Kernel marks trap handlers living in the kernel region.
	Kernel bool
}

// Size returns the function's code size in bytes.
func (f *Function) Size() int {
	n := 0
	for i := range f.Blocks {
		n += f.Blocks[i].NumInstrs * isa.InstrBytes
	}
	return n
}

// Program is a static synthetic program image for one address space.
type Program struct {
	// Profile the image was built from.
	Profile Profile
	// ASID is the address-space identifier baked into every address.
	ASID uint64
	// Funcs holds user functions [0, NumUser) followed by kernel trap
	// handlers [NumUser, len).
	Funcs []Function
	// NumUser is the number of user functions.
	NumUser int
	// CodeBytes is the total user code size.
	CodeBytes int

	// Samplers derived from the profile alone, built once here and
	// shared by every thread walking the image: top-level dispatch over
	// user functions, and line popularity in the near and hot data
	// regions.
	topZipf  *rng.Zipf
	nearZipf *rng.Zipf
	farZipf  *rng.Zipf
}

// Address-space layout (relative to the ASID base): user code, kernel
// code, then the data regions. The ASID occupies the high bits so that
// distinct processes on a CMP never alias.
const (
	asidShift  = 44
	codeBase   = isa.Addr(0x0000_0001_0000)
	kernelBase = isa.Addr(0x0800_0000_0000 >> 4) // well above any code
	stackBase  = isa.Addr(0x0400_0000_0000 >> 4)
	nearBase   = isa.Addr(0x0180_0000_0000 >> 4)
	hotBase    = isa.Addr(0x0200_0000_0000 >> 4)
	coldBase   = isa.Addr(0x0300_0000_0000 >> 4)

	// Strides separating per-thread private regions within a process.
	threadStackStride = isa.Addr(1 << 20)
	threadNearStride  = isa.Addr(16 << 20)

	// dataLineBytes is the granule of the Zipf-sampled near and hot
	// data regions: each sampled rank is one line of this size.
	dataLineBytes = 64
)

// SpaceBase returns the base address of address space asid.
func SpaceBase(asid uint64) isa.Addr {
	return isa.Addr(asid << asidShift)
}

// BuildProgram constructs the static image for one process. asid selects
// the address space; the same (profile, asid) always yields the same
// image, and images for different asids of the same profile are
// structurally identical but disjoint in the address space.
func BuildProgram(p Profile, asid uint64) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// The image is a pure function of the profile seed: processes of the
	// same application share structure (same binary), only placement
	// (asid) differs.
	r := rng.New(p.Seed ^ 0x9e3779b97f4a7c15)
	base := SpaceBase(asid)

	prog := &Program{
		Profile:  p,
		ASID:     asid,
		NumUser:  p.NumFuncs,
		topZipf:  rng.NewZipf(p.NumFuncs, p.PopularityS),
		nearZipf: rng.NewZipf(p.NearDataBytes/dataLineBytes, p.NearZipfS),
		farZipf:  rng.NewZipf(p.HotDataBytes/dataLineBytes, p.DataZipfS),
	}
	prog.Funcs = make([]Function, 0, p.NumFuncs+p.KernelFuncs)

	calleeZipf := rng.NewZipf(p.NumFuncs, p.CalleeS)
	termWeights := rng.NewCategorical([]float64{
		p.WFall, p.WCond, p.WUncond, p.WCall, p.WJump, p.WRetEarly, p.WTrap,
	})

	// Lay out user functions contiguously from the code base. Functions
	// are generated in popularity order (index == popularity rank), so
	// the layout clusters hot code exactly as the paper's link-time
	// optimised binaries do.
	pc := base + codeBase
	for fi := 0; fi < p.NumFuncs; fi++ {
		f := buildFunction(fi, pc, p, r, termWeights, calleeZipf, false)
		pc = alignAddr(f.Entry+isa.Addr(f.Size()), p.FuncAlignBytes)
		prog.CodeBytes += f.Size()
		prog.Funcs = append(prog.Funcs, f)
	}

	// Kernel trap handlers live in a distant region.
	kpc := base + kernelBase
	for ki := 0; ki < p.KernelFuncs; ki++ {
		f := buildFunction(p.NumFuncs+ki, kpc, p, r, termWeights, calleeZipf, true)
		kpc = alignAddr(f.Entry+isa.Addr(f.Size()), p.FuncAlignBytes)
		prog.Funcs = append(prog.Funcs, f)
	}
	return prog, nil
}

// MustBuildProgram is BuildProgram that panics on error, for use with
// the built-in profiles.
func MustBuildProgram(p Profile, asid uint64) *Program {
	prog, err := BuildProgram(p, asid)
	if err != nil {
		panic(err)
	}
	return prog
}

func alignAddr(a isa.Addr, align int) isa.Addr {
	mask := isa.Addr(align - 1)
	return (a + mask) &^ mask
}

func buildFunction(index int, entry isa.Addr, p Profile, r *rng.Rand,
	terms *rng.Categorical, calleeZipf *rng.Zipf, kernel bool) Function {
	// Traps (syscalls) do not appear in the very hottest user functions:
	// a trap site in a tight dispatch path would dominate the dynamic
	// trap rate, which the paper reports as negligible.
	noTraps := index < p.NumFuncs/50

	nBlocks := p.FuncBlocksMin + r.Geometric(1/float64(p.FuncBlocksMean-p.FuncBlocksMin+1))
	if kernel {
		// Handlers are short: entry, a little work, return.
		nBlocks = 2 + r.Intn(4)
	}
	f := Function{Index: index, Entry: entry, Kernel: kernel}
	f.Blocks = make([]StaticBlock, nBlocks)

	pc := entry
	for bi := 0; bi < nBlocks; bi++ {
		b := &f.Blocks[bi]
		b.PC = pc
		b.NumInstrs = p.BlockInstrsMin + r.Geometric(1/float64(p.BlockInstrsMean-p.BlockInstrsMin+1))
		pc += isa.Addr(b.NumInstrs * isa.InstrBytes)

		if bi == nBlocks-1 {
			b.Term = TermRet
			continue
		}
		if kernel {
			// Handlers fall through then return: no nested control.
			b.Term = TermFall
			continue
		}
		assignTerminator(b, bi, nBlocks, p, r, terms, calleeZipf)
		if noTraps && b.Term == TermTrap {
			b.Term = TermFall
			b.Callee = 0
		}
	}
	return f
}

func assignTerminator(b *StaticBlock, bi, nBlocks int, p Profile, r *rng.Rand,
	terms *rng.Categorical, calleeZipf *rng.Zipf) {

	switch TermKind(terms.Sample(r)) {
	case TermFall:
		b.Term = TermFall

	case TermCond:
		b.Term = TermCond
		if r.Bool(p.PCondBwd) && bi > 0 {
			// Backward (loop) branch.
			b.Backward = true
			dist := 1 + r.Geometric(0.4)
			if dist > bi {
				dist = bi
			}
			b.Target = int32(bi - dist)
			b.TakenProb = clamp01(p.PLoopContinue + 0.08*(r.Float64()-0.5))
		} else {
			dist := 1 + r.Geometric(1/float64(p.CondFwdDistMean))
			tgt := bi + 1 + dist
			if tgt >= nBlocks {
				tgt = nBlocks - 1
			}
			b.Target = int32(tgt)
			// Bimodal per-site bias: most sites are strongly biased one
			// way (learnable by gshare), a minority are genuinely hard.
			// This is what gives a realistic mispredict rate instead of
			// the ~40% a uniformly 60/40 branch population would yield.
			const hardShare = 0.08
			u := r.Float64()
			switch {
			case u < p.PCondFwdTaken:
				b.TakenProb = clamp01(0.88 + 0.10*r.Float64()) // strongly taken
			case u < 1-hardShare:
				b.TakenProb = clamp01(0.02 + 0.10*r.Float64()) // strongly not taken
			default:
				b.TakenProb = clamp01(0.35 + 0.30*r.Float64()) // hard
			}
		}

	case TermUncond:
		b.Term = TermUncond
		dist := 1 + r.Geometric(1/float64(p.UncondDistMean))
		tgt := bi + 1 + dist
		if tgt >= nBlocks {
			tgt = nBlocks - 1
		}
		b.Target = int32(tgt)

	case TermCall:
		b.Term = TermCall
		b.Callee = int32(calleeZipf.Sample(r))

	case TermJump:
		b.Term = TermJump
		n := 2
		b.JumpTargets = make([]int32, n)
		for i := range b.JumpTargets {
			b.JumpTargets[i] = int32(calleeZipf.Sample(r))
		}

	case TermRet: // early return
		b.Term = TermRet

	case TermTrap:
		b.Term = TermTrap
		b.Callee = int32(p.NumFuncs + r.Intn(p.KernelFuncs))
	}
}

func clamp01(f float64) float64 {
	if f < 0.02 {
		return 0.02
	}
	if f > 0.98 {
		return 0.98
	}
	return f
}

// Validate checks structural invariants of the built image; tests use
// it, and trace tooling runs it before regenerating streams.
func (prog *Program) Validate() error {
	if len(prog.Funcs) != prog.NumUser+prog.Profile.KernelFuncs {
		return fmt.Errorf("workload: function count mismatch")
	}
	for fi := range prog.Funcs {
		f := &prog.Funcs[fi]
		if len(f.Blocks) == 0 {
			return fmt.Errorf("workload: function %d empty", fi)
		}
		if f.Blocks[len(f.Blocks)-1].Term != TermRet {
			return fmt.Errorf("workload: function %d does not end in return", fi)
		}
		pc := f.Entry
		for bi := range f.Blocks {
			b := &f.Blocks[bi]
			if b.PC != pc {
				return fmt.Errorf("workload: function %d block %d not contiguous", fi, bi)
			}
			pc += isa.Addr(b.NumInstrs * isa.InstrBytes)
			switch b.Term {
			case TermCond, TermUncond:
				if int(b.Target) < 0 || int(b.Target) >= len(f.Blocks) {
					return fmt.Errorf("workload: function %d block %d target out of range", fi, bi)
				}
				if b.Term == TermCond && b.Backward && int(b.Target) >= bi {
					return fmt.Errorf("workload: function %d block %d backward branch goes forward", fi, bi)
				}
			case TermCall, TermTrap:
				if int(b.Callee) < 0 || int(b.Callee) >= len(prog.Funcs) {
					return fmt.Errorf("workload: function %d block %d callee out of range", fi, bi)
				}
			case TermJump:
				if len(b.JumpTargets) == 0 {
					return fmt.Errorf("workload: function %d block %d jump without targets", fi, bi)
				}
				for _, t := range b.JumpTargets {
					if int(t) < 0 || int(t) >= prog.NumUser {
						return fmt.Errorf("workload: function %d block %d jump target out of range", fi, bi)
					}
				}
			}
			if b.Term != TermRet && bi == len(f.Blocks)-1 {
				return fmt.Errorf("workload: function %d last block is not a return", fi)
			}
		}
	}
	return nil
}
