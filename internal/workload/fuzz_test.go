package workload

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// fuzzSizeBounds caps the profile fields that scale build time and
// memory, so one fuzz execution stays in the milliseconds. The caps sit
// above every paper profile's value.
var fuzzSizeBounds = map[string]int{
	"NumFuncs":        1 << 14,
	"FuncBlocksMean":  64,
	"FuncBlocksMin":   64,
	"BlockInstrsMean": 64,
	"BlockInstrsMin":  64,
	"FuncAlignBytes":  1 << 12,
	"MaxCallDepth":    1 << 10,
	"KernelFuncs":     256,
	"NearDataBytes":   8 << 20,
	"HotDataBytes":    8 << 20,
}

// encodeFuzzProfile lays out p's numeric fields as consecutive 8-byte
// little-endian words in declaration order (ints as int64, floats as
// their IEEE bits); decodeFuzzProfile inverts it.
func encodeFuzzProfile(p Profile) []byte {
	var out []byte
	v := reflect.ValueOf(p)
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			out = binary.LittleEndian.AppendUint64(out, uint64(f.Int()))
		case reflect.Uint64:
			out = binary.LittleEndian.AppendUint64(out, f.Uint())
		case reflect.Float64:
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f.Float()))
		}
	}
	return out
}

// decodeFuzzProfile reads a profile from data (missing words are zero)
// and folds each bounded size into [min(v, 0), bound]; negative values
// pass through for Validate to judge.
func decodeFuzzProfile(data []byte) Profile {
	p := Profile{Name: "fuzz"}
	v := reflect.ValueOf(&p).Elem()
	word := func() uint64 {
		var w [8]byte
		data = data[copy(w[:], data):]
		return binary.LittleEndian.Uint64(w[:])
	}
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			n := int(int64(word()))
			if max, ok := fuzzSizeBounds[v.Type().Field(i).Name]; ok && n > max {
				n %= max + 1
			}
			f.SetInt(int64(n))
		case reflect.Uint64:
			f.SetUint(word())
		case reflect.Float64:
			f.SetFloat(math.Float64frombits(word()))
		}
	}
	return p
}

// FuzzProfileBuild checks that Validate guards everything downstream of
// it: a profile it accepts builds a program, starts a thread and
// generates 1 000 blocks without panicking, and one it rejects makes
// BuildProgram return an error.
func FuzzProfileBuild(f *testing.F) {
	for _, p := range Profiles() {
		f.Add(encodeFuzzProfile(p))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFuzzProfile(data)
		prog, err := BuildProgram(p, 1)
		if verr := p.Validate(); verr != nil {
			if err == nil {
				t.Fatalf("BuildProgram accepted a profile Validate rejects: %v", verr)
			}
			return
		}
		if err != nil {
			t.Fatalf("BuildProgram rejected a valid profile: %v", err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
		g := NewGeneratorThread(prog, p.Seed, 3)
		var b isa.Block
		for i := 0; i < 1000; i++ {
			g.Next(&b)
		}
	})
}

// TestFuzzProfileCodec pins the seed corpus: every paper profile must
// survive the fuzz encoding unchanged, or the fuzzer starts from
// profiles other than the paper's.
func TestFuzzProfileCodec(t *testing.T) {
	for _, p := range Profiles() {
		got := decodeFuzzProfile(encodeFuzzProfile(p))
		got.Name = p.Name
		if got != p {
			t.Errorf("%s: codec round trip gives %+v", p.Name, got)
		}
	}
}
