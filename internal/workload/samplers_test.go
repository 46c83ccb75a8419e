package workload

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/rng"
)

// streamDigest hashes the first n blocks of g: every field a consumer
// sees (PC, length, CTI, target and each data access).
func streamDigest(g *Generator, n int) uint64 {
	h := fnv.New64a()
	var b isa.Block
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := 0; i < n; i++ {
		g.Next(&b)
		put(uint64(b.PC))
		put(uint64(b.NumInstrs))
		put(uint64(b.CTI))
		put(uint64(b.Target))
		put(uint64(len(b.MemOps)))
		for _, op := range b.MemOps {
			put(uint64(op.Addr))
			put(uint64(op.Kind))
		}
	}
	return h.Sum64()
}

// TestBlockStreamDigests pins the first 10 K blocks of threads 0–3 of
// every paper profile. The digests were recorded while each generator
// still built its own data samplers; moving them into the Program must
// leave every stream bit-identical.
func TestBlockStreamDigests(t *testing.T) {
	want := map[string][4]uint64{
		"DB":    {0xf4749d033df1f917, 0x38eaa4df511c3084, 0x2ce1b55817889a1b, 0x92605a73bff3d52b},
		"TPC-W": {0x99237a1f7c8e448c, 0xc11ff37f23b3bce0, 0xe2529cbca9967a45, 0x8104d9820704cca5},
		"jApp":  {0x933f12c52115ba43, 0x14514f527529282b, 0x5d2c5a1c7bcbf5a5, 0xa7404c6353f3fa81},
		"Web":   {0xca8f7be8a270642c, 0x7d752d0748a8819a, 0x0ec578d4f3ffe9d6, 0x9c52716a5f97fc72},
	}
	for _, p := range Profiles() {
		prog := MustBuildProgram(p, 0)
		var got [4]uint64
		for tid := range got {
			got[tid] = streamDigest(NewGeneratorThread(prog, 1, tid), 10_000)
		}
		if got != want[p.Name] {
			t.Errorf("%s: digests %#x, want %#x", p.Name, got, want[p.Name])
		}
	}
}

// TestThreadsShareSamplers: threads 0–3 of one program draw from the
// program's own sampler tables, not per-thread copies.
func TestThreadsShareSamplers(t *testing.T) {
	prog := MustBuildProgram(JApp(), 0)
	for tid := 0; tid < 4; tid++ {
		g := NewGeneratorThread(prog, 1, tid)
		for _, z := range []struct {
			name      string
			got, want *rng.Zipf
		}{
			{"dispatch", g.prog.topZipf, prog.topZipf},
			{"near", g.prog.nearZipf, prog.nearZipf},
			{"hot", g.prog.farZipf, prog.farZipf},
		} {
			if z.want == nil || z.got != z.want {
				t.Errorf("thread %d: %s sampler %p, want the program's %p", tid, z.name, z.got, z.want)
			}
		}
	}
}

// TestNewThreadAllocation bounds what one more thread of an existing
// program costs: its walk state only, not a copy of the program's
// profile-derived sampler tables. The best of three rounds is taken so
// an allocation elsewhere in the process cannot fail it.
func TestNewThreadAllocation(t *testing.T) {
	prog := MustBuildProgram(JApp(), 0)
	const threads = 16
	best := uint64(1 << 62)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for tid := 1; tid <= threads; tid++ {
			NewGeneratorThread(prog, 1, tid)
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/threads)
	}
	if best >= 4<<10 {
		t.Fatalf("one more thread allocates %d B, want < 4 KiB", best)
	}
}
