package workload

import (
	"math"
	"testing"

	"repro/internal/isa"
)

func TestProfilesValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestProfileValidateRejects(t *testing.T) {
	mods := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.NumFuncs = 1 },
		func(p *Profile) { p.FuncBlocksMin = 1 },
		func(p *Profile) { p.FuncBlocksMean = 1 },
		func(p *Profile) { p.BlockInstrsMin = 0 },
		func(p *Profile) { p.FuncAlignBytes = 24 },
		func(p *Profile) { p.PopularityS = 0 },
		func(p *Profile) { p.CalleesMean = 0 },
		func(p *Profile) {
			p.WFall, p.WCond, p.WUncond, p.WCall, p.WJump, p.WRetEarly, p.WTrap = 0, 0, 0, 0, 0, 0, 0
		},
		func(p *Profile) { p.PCondBwd = 1.5 },
		func(p *Profile) { p.PStack = 0.8; p.PNear = 0.3; p.PFar = 0.2 },
		func(p *Profile) { p.NearDataBytes = 0 },
		func(p *Profile) { p.MaxCallDepth = 0 },
		func(p *Profile) { p.KernelFuncs = 0 },
		func(p *Profile) { p.HotDataBytes = 0 },
		func(p *Profile) { p.DataZipfS = 0 },
		func(p *Profile) { p.CondFwdDistMean = 0 },
		func(p *Profile) { p.WJump = -1e-300 },
		func(p *Profile) { p.PNear = math.NaN() },
		func(p *Profile) { p.NearZipfS = math.NaN() },
		func(p *Profile) { p.UncondDistMean = 1 << 60 },
	}
	for i, mod := range mods {
		p := DB()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("modification %d accepted", i)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, p.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestBuildProgramStructure(t *testing.T) {
	for _, p := range Profiles() {
		prog := MustBuildProgram(p, 1)
		if err := prog.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(prog.Funcs) != p.NumFuncs+p.KernelFuncs {
			t.Fatalf("%s: %d functions", p.Name, len(prog.Funcs))
		}
		// Code footprint must be far larger than L1-I (32 KB) and in the
		// neighbourhood of the L2 (2 MB): that is the regime the paper
		// studies.
		if prog.CodeBytes < 1<<20 {
			t.Errorf("%s: code footprint %d B too small", p.Name, prog.CodeBytes)
		}
		if prog.CodeBytes > 16<<20 {
			t.Errorf("%s: code footprint %d B implausibly large", p.Name, prog.CodeBytes)
		}
	}
}

func TestBuildProgramDeterminism(t *testing.T) {
	a := MustBuildProgram(DB(), 2)
	b := MustBuildProgram(DB(), 2)
	if len(a.Funcs) != len(b.Funcs) {
		t.Fatal("function counts differ")
	}
	for i := range a.Funcs {
		if a.Funcs[i].Entry != b.Funcs[i].Entry || len(a.Funcs[i].Blocks) != len(b.Funcs[i].Blocks) {
			t.Fatalf("function %d differs between identical builds", i)
		}
	}
}

func TestBuildProgramASIDDisjoint(t *testing.T) {
	a := MustBuildProgram(DB(), 0)
	b := MustBuildProgram(DB(), 1)
	// Same structure, different placement.
	if a.Funcs[0].Entry == b.Funcs[0].Entry {
		t.Fatal("different ASIDs share addresses")
	}
	if a.Funcs[10].Entry-a.Funcs[0].Entry != b.Funcs[10].Entry-b.Funcs[0].Entry {
		t.Fatal("ASID changed program structure")
	}
	// Address spaces must not overlap.
	if SpaceBase(1)-SpaceBase(0) < isa.Addr(a.CodeBytes) {
		t.Fatal("address spaces overlap")
	}
}

func TestBuildProgramRejectsInvalid(t *testing.T) {
	p := DB()
	p.NumFuncs = 0
	if _, err := BuildProgram(p, 0); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

// TestBuildProgramRejectsSubLineRegions: the near and hot regions are
// sampled a 64-byte line at a time, so a region smaller than one line
// has nothing to sample and must be an error, not a panic.
func TestBuildProgramRejectsSubLineRegions(t *testing.T) {
	cases := []struct {
		name      string
		near, hot int
	}{
		{"near-1", 1, 2 << 20},
		{"near-63", 63, 2 << 20},
		{"hot-1", 256 << 10, 1},
		{"hot-63", 256 << 10, 63},
		{"both-32", 32, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DB()
			p.NearDataBytes, p.HotDataBytes = tc.near, tc.hot
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("BuildProgram panicked: %v", r)
				}
			}()
			if _, err := BuildProgram(p, 0); err == nil {
				t.Fatal("sub-line data region accepted")
			}
		})
	}
	p := DB()
	p.NearDataBytes, p.HotDataBytes = 64, 64
	if _, err := BuildProgram(p, 0); err != nil {
		t.Fatalf("one-line regions rejected: %v", err)
	}
}

// TestStreamContinuity checks the core invariant: each emitted block
// starts exactly where the previous block said fetch would continue.
func TestStreamContinuity(t *testing.T) {
	for _, p := range Profiles() {
		prog := MustBuildProgram(p, 0)
		g := NewGenerator(prog, 7)
		var b isa.Block
		g.Next(&b)
		next := b.NextPC()
		for i := 0; i < 200000; i++ {
			g.Next(&b)
			if b.PC != next {
				t.Fatalf("%s: block %d at %#x, expected %#x (prev CTI)", p.Name, i, uint64(b.PC), uint64(next))
			}
			if err := b.Validate(); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			next = b.NextPC()
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	prog := MustBuildProgram(Web(), 0)
	g1 := NewGenerator(prog, 3)
	g2 := NewGenerator(prog, 3)
	var b1, b2 isa.Block
	for i := 0; i < 50000; i++ {
		g1.Next(&b1)
		g2.Next(&b2)
		if b1.PC != b2.PC || b1.CTI != b2.CTI || b1.Target != b2.Target || len(b1.MemOps) != len(b2.MemOps) {
			t.Fatalf("streams diverged at block %d", i)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	prog := MustBuildProgram(Web(), 0)
	g1 := NewGenerator(prog, 3)
	g2 := NewGenerator(prog, 4)
	var b1, b2 isa.Block
	diverged := false
	for i := 0; i < 10000; i++ {
		g1.Next(&b1)
		g2.Next(&b2)
		if b1.PC != b2.PC {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestDepthBounded(t *testing.T) {
	for _, p := range Profiles() {
		prog := MustBuildProgram(p, 0)
		g := NewGenerator(prog, 11)
		var b isa.Block
		maxDepth := 0
		for i := 0; i < 300000; i++ {
			g.Next(&b)
			if d := g.Depth(); d > maxDepth {
				maxDepth = d
			}
		}
		if maxDepth > p.MaxCallDepth {
			t.Fatalf("%s: depth %d exceeded bound %d", p.Name, maxDepth, p.MaxCallDepth)
		}
		if maxDepth < 2 {
			t.Fatalf("%s: depth never exceeded %d; call graph too shallow", p.Name, maxDepth)
		}
	}
}

// TestCTIMix checks the dynamic stream has the broad shape the paper's
// Figure 3 depends on: a healthy mix of sequential flow, conditional
// branches, calls and returns, with traps rare and calls ≈ returns.
func TestCTIMix(t *testing.T) {
	prog := MustBuildProgram(DB(), 0)
	g := NewGenerator(prog, 1)
	var b isa.Block
	counts := make(map[isa.CTIKind]int)
	const n = 500000
	for i := 0; i < n; i++ {
		g.Next(&b)
		counts[b.CTI]++
	}
	frac := func(k isa.CTIKind) float64 { return float64(counts[k]) / n }

	if f := frac(isa.CTICall); f < 0.03 || f > 0.30 {
		t.Errorf("call fraction = %v", f)
	}
	callish := counts[isa.CTICall] + counts[isa.CTITrap]
	rets := counts[isa.CTIReturn]
	if math.Abs(float64(callish-rets))/float64(rets) > 0.25 {
		t.Errorf("calls+traps (%d) and returns (%d) unbalanced", callish, rets)
	}
	if f := frac(isa.CTICondTakenFwd) + frac(isa.CTICondTakenBwd) + frac(isa.CTICondNotTaken); f < 0.15 {
		t.Errorf("conditional fraction = %v too low", f)
	}
	if f := frac(isa.CTITrap); f > 0.01 {
		t.Errorf("trap fraction = %v too high", f)
	}
	if f := frac(isa.CTIJump); f == 0 {
		t.Error("no indirect jumps generated")
	}
	if counts[isa.CTINone]+counts[isa.CTICondNotTaken] == 0 {
		t.Error("no sequential flow at all")
	}
}

func TestMemOpsShape(t *testing.T) {
	p := DB()
	prog := MustBuildProgram(p, 0)
	g := NewGenerator(prog, 1)
	var b isa.Block
	var ops, loads, instrs int
	regions := map[string]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		g.Next(&b)
		instrs += b.NumInstrs
		ops += len(b.MemOps)
		for _, m := range b.MemOps {
			if m.Kind == isa.MemLoad {
				loads++
			}
			off := m.Addr - SpaceBase(prog.ASID)
			switch {
			case off >= stackBase && off < stackBase+isa.Addr(p.StackBytes):
				regions["stack"]++
			case off >= nearBase && off < nearBase+isa.Addr(p.NearDataBytes):
				regions["near"]++
			case off >= hotBase && off < hotBase+isa.Addr(p.HotDataBytes):
				regions["hot"]++
			case off >= coldBase && off < coldBase+isa.Addr(p.ColdDataBytes):
				regions["cold"]++
			default:
				t.Fatalf("memop address %#x outside any region", uint64(m.Addr))
			}
		}
	}
	loadRate := float64(loads) / float64(instrs)
	if math.Abs(loadRate-p.LoadsPerInstr) > 0.02 {
		t.Errorf("load rate = %v, want ~%v", loadRate, p.LoadsPerInstr)
	}
	if regions["stack"] == 0 || regions["near"] == 0 || regions["hot"] == 0 || regions["cold"] == 0 {
		t.Errorf("region mix degenerate: %v", regions)
	}
}

// TestHotCodeConcentration verifies Zipf layout: the first (hottest)
// functions receive far more fetches than the tail.
func TestHotCodeConcentration(t *testing.T) {
	prog := MustBuildProgram(JApp(), 0)
	g := NewGenerator(prog, 5)
	var b isa.Block
	// Boundary address of the first 10% of user functions.
	cut := prog.Funcs[prog.NumUser/10].Entry
	hot := 0
	const n = 300000
	for i := 0; i < n; i++ {
		g.Next(&b)
		if b.PC < cut && b.PC >= prog.Funcs[0].Entry {
			hot++
		}
	}
	if f := float64(hot) / n; f < 0.30 {
		t.Errorf("hottest 10%% of code received only %v of fetches; Zipf layout broken", f)
	}
}

func TestInstructionCounter(t *testing.T) {
	prog := MustBuildProgram(Web(), 0)
	g := NewGenerator(prog, 1)
	var b isa.Block
	var sum uint64
	for i := 0; i < 1000; i++ {
		g.Next(&b)
		sum += uint64(b.NumInstrs)
	}
	if g.Instructions() != sum {
		t.Fatalf("Instructions() = %d, want %d", g.Instructions(), sum)
	}
	if g.Blocks() != 1000 {
		t.Fatalf("Blocks() = %d", g.Blocks())
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	prog := MustBuildProgram(DB(), 0)
	g := NewGenerator(prog, 1)
	var blk isa.Block
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&blk)
	}
}
