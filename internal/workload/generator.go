package workload

import (
	"repro/internal/isa"
	"repro/internal/rng"
)

// Source produces a stream of dynamic basic blocks. Next fills *b
// (reusing its MemOps capacity) so steady-state generation is
// allocation-free. Implementations: *Generator (synthetic execution) and
// trace.Reader (recorded streams).
type Source interface {
	Next(b *isa.Block)
}

// frame is one call-stack entry: where execution resumes after a return.
type frame struct {
	fn  int32
	blk int32
}

// Generator walks a Program's call graph, emitting the dynamic
// basic-block stream of one simulated thread. It is deterministic given
// (program, seed, tid) and runs forever (commercial server workloads are
// steady-state transaction loops). Not safe for concurrent use.
//
// Threads of the same program share its code and its hot/cold data
// regions (one server process, one buffer pool) but have private stack
// and near (per-transaction) data regions — which is what makes the
// homogeneous 4-way CMP behave like the paper's: code is shared in the
// L2 while per-thread data multiplies.
type Generator struct {
	prog *Program

	// coldMask is ColdDataBytes-1 when that size is a power of two
	// (the common case), letting dataAddr mask instead of divide; 0
	// selects the general Uint64n path.
	coldMask uint64

	// Precomputed rng.BoolThreshold values for the profile's per-
	// instruction and per-access probabilities, so the generation loops
	// compare integers instead of converting to float64 every draw.
	loadThr, storeThr         uint64
	stackThr, nearThr, farThr uint64

	// base is the address-space base of this process; tidStackOff and
	// tidNearOff displace this thread's private regions.
	base        isa.Addr
	tidStackOff isa.Addr
	tidNearOff  isa.Addr

	generatorState
}

// generatorState is the dynamic state of a Generator walk: the rng
// stream, the call stack, the current frame, and the progress counters
// (see copyInto). Everything else on the Generator (program image,
// thresholds, region bases) is immutable after construction; the
// samplers it draws from belong to the shared Program.
type generatorState struct {
	r     rng.Rand
	stack []frame
	cur   frame

	instrs  uint64
	txStart uint64
	blocks  uint64
}

// NewGenerator creates an execution engine over prog as thread 0.
func NewGenerator(prog *Program, seed uint64) *Generator {
	return NewGeneratorThread(prog, seed, 0)
}

// NewGeneratorThread creates thread tid of the process: an independent
// control-flow walk (seeded separately) over the shared program image,
// with private stack and near-data regions.
func NewGeneratorThread(prog *Program, seed uint64, tid int) *Generator {
	g := &Generator{
		prog: prog,
		base: SpaceBase(prog.ASID),
		generatorState: generatorState{
			r:     *rng.New(seed ^ prog.Profile.Seed ^ (prog.ASID * 0x9e3779b9) ^ (uint64(tid) << 32)),
			stack: make([]frame, 0, prog.Profile.MaxCallDepth+4),
		},
	}
	if c := prog.Profile.ColdDataBytes; c&(c-1) == 0 {
		g.coldMask = uint64(c - 1)
	}
	pr := &prog.Profile
	g.loadThr = rng.BoolThreshold(pr.LoadsPerInstr)
	g.storeThr = rng.BoolThreshold(pr.StoresPerInstr)
	g.stackThr = rng.BoolThreshold(pr.PStack)
	g.nearThr = rng.BoolThreshold(pr.PStack + pr.PNear)
	g.farThr = rng.BoolThreshold(pr.PStack + pr.PNear + pr.PFar)
	g.tidStackOff = isa.Addr(tid) * threadStackStride
	g.tidNearOff = isa.Addr(tid) * threadNearStride
	g.cur = frame{fn: int32(g.dispatch()), blk: 0}
	return g
}

// dispatch picks the next top-level function (transaction entry point)
// by popularity.
func (g *Generator) dispatch() int {
	return g.prog.topZipf.Sample(&g.r)
}

// Instructions returns the number of instructions emitted so far.
func (g *Generator) Instructions() uint64 { return g.instrs }

// Blocks returns the number of blocks emitted so far.
func (g *Generator) Blocks() uint64 { return g.blocks }

// Depth returns the current call-stack depth (tests/diagnostics).
func (g *Generator) Depth() int { return len(g.stack) }

// Next emits the next dynamic basic block into *b. b.MemOps is reused.
func (g *Generator) Next(b *isa.Block) {
	p := &g.prog.Profile
	fn := &g.prog.Funcs[g.cur.fn]
	sb := &fn.Blocks[g.cur.blk]

	b.PC = sb.PC
	b.NumInstrs = sb.NumInstrs
	b.MemOps = g.genMemOps(b.MemOps[:0], sb.NumInstrs)
	g.instrs += uint64(sb.NumInstrs)
	g.blocks++

	term := sb.Term
	// A call at the depth bound degrades to a fall-through; the static
	// image guarantees a fall-through successor exists (calls are never
	// the last block).
	if term == TermCall && len(g.stack) >= p.MaxCallDepth {
		term = TermFall
	}
	if term == TermTrap && len(g.stack) >= p.MaxCallDepth {
		term = TermFall
	}

	switch term {
	case TermFall:
		b.CTI = isa.CTINone
		b.Target = 0
		g.cur.blk++

	case TermCond:
		taken := g.r.Bool(sb.TakenProb)
		if !taken {
			b.CTI = isa.CTICondNotTaken
			b.Target = 0
			g.cur.blk++
			break
		}
		if sb.Backward {
			b.CTI = isa.CTICondTakenBwd
		} else {
			b.CTI = isa.CTICondTakenFwd
		}
		b.Target = fn.Blocks[sb.Target].PC
		g.cur.blk = sb.Target

	case TermUncond:
		b.CTI = isa.CTIUncondBranch
		b.Target = fn.Blocks[sb.Target].PC
		g.cur.blk = sb.Target

	case TermCall:
		b.CTI = isa.CTICall
		g.stack = append(g.stack, frame{fn: g.cur.fn, blk: g.cur.blk + 1})
		g.cur = frame{fn: sb.Callee, blk: 0}
		b.Target = g.prog.Funcs[sb.Callee].Entry

	case TermJump:
		// Indirect tail call: replace the current frame; the eventual
		// return unwinds to the original caller.
		b.CTI = isa.CTIJump
		tgt := sb.JumpTargets[g.r.Intn(len(sb.JumpTargets))]
		g.cur = frame{fn: tgt, blk: 0}
		b.Target = g.prog.Funcs[tgt].Entry

	case TermRet:
		b.CTI = isa.CTIReturn
		if g.instrs-g.txStart >= uint64(p.TransactionInstrs) {
			// Transaction budget spent: unwind to the dispatch loop and
			// begin a fresh transaction at a fresh entry point. Without
			// this renewal a supercritical call graph would pin the
			// stack at MaxCallDepth and freeze the working set.
			g.stack = g.stack[:0]
			g.txStart = g.instrs
			g.cur = frame{fn: int32(g.dispatch()), blk: 0}
			b.Target = g.prog.Funcs[g.cur.fn].Entry
			break
		}
		if n := len(g.stack); n > 0 {
			g.cur = g.stack[n-1]
			g.stack = g.stack[:n-1]
			b.Target = g.prog.Funcs[g.cur.fn].Blocks[g.cur.blk].PC
		} else {
			// Top-level return: the dispatch loop starts the next
			// transaction.
			g.txStart = g.instrs
			g.cur = frame{fn: int32(g.dispatch()), blk: 0}
			b.Target = g.prog.Funcs[g.cur.fn].Entry
		}

	case TermTrap:
		b.CTI = isa.CTITrap
		g.stack = append(g.stack, frame{fn: g.cur.fn, blk: g.cur.blk + 1})
		g.cur = frame{fn: sb.Callee, blk: 0}
		b.Target = g.prog.Funcs[sb.Callee].Entry
	}
}

// drawBool decides a precomputed-threshold probability, replicating
// Bool's draw-skipping for the degenerate never/always thresholds so
// the random sequence matches a Bool-based generation exactly.
func (g *Generator) drawBool(t uint64) bool {
	if t == 0 {
		return false
	}
	if t == 1<<53 {
		return true
	}
	return g.r.BoolThr(t)
}

// genMemOps appends this block's data accesses to dst and returns it.
func (g *Generator) genMemOps(dst []isa.MemOp, numInstrs int) []isa.MemOp {
	for i := 0; i < numInstrs; i++ {
		if g.drawBool(g.loadThr) {
			dst = append(dst, isa.MemOp{Addr: g.dataAddr(), Kind: isa.MemLoad})
		}
		if g.drawBool(g.storeThr) {
			dst = append(dst, isa.MemOp{Addr: g.dataAddr(), Kind: isa.MemStore})
		}
	}
	return dst
}

// dataAddr draws one data address from the profile's four-region model:
// stack (L1-resident), near (per-transaction working set, roughly
// L1-sized), hot (L2-resident heap/globals — the region that suffers
// from L2 pollution), and cold (streaming, always misses).
func (g *Generator) dataAddr() isa.Addr {
	p := &g.prog.Profile
	// One 53-bit draw compared against precomputed cumulative
	// thresholds — the integer image of `u := Float64(); u < P…`.
	u := g.r.Uint64() >> 11
	switch {
	case u < g.stackThr:
		// Stack frame region scales with call depth; accesses cluster
		// near the current frame. The offset only exceeds the region for
		// very deep stacks, so the wrap-around division is kept off the
		// common path.
		off := uint64(len(g.stack))*192 + uint64(g.r.Intn(192))
		if off >= uint64(p.StackBytes) {
			off %= uint64(p.StackBytes)
		}
		return g.base + stackBase + g.tidStackOff + isa.Addr(off)&^7
	case u < g.nearThr:
		line := uint64(g.prog.nearZipf.Sample(&g.r))
		return g.base + nearBase + g.tidNearOff + isa.Addr(line*dataLineBytes+uint64(g.r.Intn(8))*8)
	case u < g.farThr:
		line := uint64(g.prog.farZipf.Sample(&g.r))
		return g.base + hotBase + isa.Addr(line*dataLineBytes+uint64(g.r.Intn(8))*8)
	default:
		var off uint64
		if g.coldMask != 0 {
			off = g.r.Uint64() & g.coldMask &^ 7
		} else {
			off = g.r.Uint64n(uint64(p.ColdDataBytes)) &^ 7
		}
		return g.base + coldBase + isa.Addr(off)
	}
}
