package cmp

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// This file is the snapshot-completeness oracle: a reflective walker
// that deep-compares two machines field by field, unexported fields
// included, and a driver that forks a machine through Snapshot/Restore
// and checks the fork against the original. A mutable field that a
// component's copy method forgets, or a slice or map that a snapshot
// shares instead of copying, shows up as a reported difference.

// exemptFields lists the fields the walker skips, as "pkg.Type.field"
// of the struct that declares them, each with the reason it is not
// state that a fork must carry.
var exemptFields = map[string]string{
	"core.FrontEnd.candBuf":    "per-call scratch: truncated to length 0 before every use",
	"hybrid.Composite.scratch": "per-call scratch: truncated to length 0 before every use",
}

// exemptKinds lists the kinds the walker skips wherever they appear,
// each with its reason.
var exemptKinds = map[reflect.Kind]string{
	reflect.Chan: "the trace replayer's one-slot decode handshake: RestoreState drains it and restarts decoding at the restored cursor (curIdx, nextIdx and the decoded chunk are compared)",
	reflect.Func: "behaviour wired at construction, not state",
}

// maxDiffs bounds a report; the first few differences name the bug.
const maxDiffs = 10

// walker deep-compares two values of the same type.
type walker struct {
	seen  map[visit]bool
	diffs []string
}

// visit is a pair of pointers already compared (cycles, and objects
// reachable along several paths).
type visit struct {
	a, b unsafe.Pointer
	t    reflect.Type
}

// deepDiff returns the paths at which a and b differ. Two pointers to
// the same address compare equal without being followed: that is how
// machines share immutable objects (program images, trace containers).
// A slice or map whose backing is shared between a and b is reported —
// mutable state must never be shared between two machines.
func deepDiff(a, b any) []string {
	w := &walker{seen: map[visit]bool{}}
	w.walk(reflect.ValueOf(a), reflect.ValueOf(b), reflect.TypeOf(a).String())
	return w.diffs
}

func (w *walker) fail(path, format string, args ...any) {
	if len(w.diffs) < maxDiffs {
		w.diffs = append(w.diffs, path+": "+fmt.Sprintf(format, args...))
	}
}

func (w *walker) walk(a, b reflect.Value, path string) {
	if len(w.diffs) >= maxDiffs {
		return
	}
	if a.Type() != b.Type() {
		w.fail(path, "type %s vs %s", a.Type(), b.Type())
		return
	}
	if _, ok := exemptKinds[a.Kind()]; ok {
		return
	}
	switch a.Kind() {
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			w.fail(path, "%v vs %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			w.fail(path, "%d vs %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			w.fail(path, "%d vs %d", a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			w.fail(path, "%v vs %v", a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			w.fail(path, "%q vs %q", a.String(), b.String())
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			w.walk(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Slice:
		w.walkSlice(a, b, path)
	case reflect.Map:
		w.walkMap(a, b, path)
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.fail(path, "nil vs non-nil")
			}
			return
		}
		if a.UnsafePointer() == b.UnsafePointer() {
			return // one shared immutable object
		}
		v := visit{a.UnsafePointer(), b.UnsafePointer(), a.Type()}
		if w.seen[v] {
			return
		}
		w.seen[v] = true
		w.walk(a.Elem(), b.Elem(), path)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.fail(path, "nil vs non-nil")
			}
			return
		}
		w.walk(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			name := t.Field(i).Name
			if _, ok := exemptFields[t.String()+"."+name]; ok {
				continue
			}
			w.walk(a.Field(i), b.Field(i), path+"."+name)
		}
	default:
		w.fail(path, "walker cannot compare kind %s", a.Kind())
	}
}

// walkSlice compares lengths and elements (not capacities: spare
// capacity is not state). Slices of plain scalars compare as bytes.
func (w *walker) walkSlice(a, b reflect.Value, path string) {
	if a.Len() != b.Len() {
		w.fail(path, "length %d vs %d", a.Len(), b.Len())
		return
	}
	if a.Len() == 0 {
		return
	}
	if a.UnsafePointer() == b.UnsafePointer() {
		w.fail(path, "backing array shared between the two machines")
		return
	}
	if size := a.Type().Elem().Size(); scalarKind(a.Type().Elem().Kind()) {
		ab := unsafe.Slice((*byte)(a.UnsafePointer()), a.Len()*int(size))
		bb := unsafe.Slice((*byte)(b.UnsafePointer()), b.Len()*int(size))
		if bytes.Equal(ab, bb) {
			return
		}
		for i := range ab {
			if ab[i] != bb[i] {
				j := i / int(size)
				w.walk(a.Index(j), b.Index(j), fmt.Sprintf("%s[%d]", path, j))
				return
			}
		}
	}
	for i := 0; i < a.Len(); i++ {
		w.walk(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i))
	}
}

func (w *walker) walkMap(a, b reflect.Value, path string) {
	if a.Len() != b.Len() {
		w.fail(path, "%d vs %d entries", a.Len(), b.Len())
		return
	}
	if !a.IsNil() && a.UnsafePointer() == b.UnsafePointer() {
		w.fail(path, "map shared between the two machines")
		return
	}
	it := a.MapRange()
	for it.Next() {
		bv := b.MapIndex(it.Key())
		if !bv.IsValid() {
			w.fail(path, "key %v missing", it.Key())
			continue
		}
		w.walk(it.Value(), bv, fmt.Sprintf("%s[%v]", path, it.Key()))
	}
}

// scalarKind reports kinds whose values are fully described by their
// bytes (no padding, no pointers).
func scalarKind(k reflect.Kind) bool {
	switch k {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

// forkable is what the oracle drives: a machine, or the self-test's toy
// component.
type forkable interface {
	step()
	snapshot() (any, error)
	restore(snap any) error
}

// checkFork runs the oracle: warm a fresh instance A, snapshot it and
// restore the snapshot into a fresh B, then require A and B to be equal
// after the restore and after each of lockstep further steps. Finally
// the same snapshot is restored into a fresh C after A has moved on;
// stepped as far as A, C must equal A — which fails when the snapshot
// shares state with the instance it was taken from. It returns the
// differences found, prefixed with the phase that found them.
func checkFork(build func() forkable, warm func(forkable), lockstep int) []string {
	phase := func(name string, diffs []string) []string {
		for i := range diffs {
			diffs[i] = name + ": " + diffs[i]
		}
		return diffs
	}
	a := build()
	warm(a)
	snap, err := a.snapshot()
	if err != nil {
		return []string{"snapshot: " + err.Error()}
	}
	restored := func() (forkable, []string) {
		f := build()
		if err := f.restore(snap); err != nil {
			return nil, []string{"restore: " + err.Error()}
		}
		return f, nil
	}
	b, errs := restored()
	if errs != nil {
		return errs
	}
	if d := deepDiff(a, b); len(d) > 0 {
		return phase("after restore", d)
	}
	for i := 1; i <= lockstep; i++ {
		a.step()
		b.step()
		if d := deepDiff(a, b); len(d) > 0 {
			return phase(fmt.Sprintf("after lockstep step %d", i), d)
		}
	}
	c, errs := restored()
	if errs != nil {
		return errs
	}
	for i := 0; i < lockstep; i++ {
		c.step()
	}
	return phase("snapshot restored after its source moved on", deepDiff(a, c))
}

// toy is the oracle self-test's two-field component: a scalar and a
// slice, stepped together, with a snapshot implementation chosen by
// bug.
type toy struct {
	toyState
	bug string
}

type toyState struct {
	n   int
	buf []int
}

func newToy(bug string) *toy { return &toy{toyState: toyState{buf: make([]int, 4)}, bug: bug} }

func (c *toy) step() {
	c.n++
	c.buf[c.n%len(c.buf)] += c.n
}

// copyInto is the copy method under test. With "forgets a scalar" it
// is the field-by-field copy the idiom replaces, missing n.
func (s toyState) copyInto(dst toyState, bug string) toyState {
	if bug == "forgets a scalar" {
		dst.buf = append(dst.buf[:0], s.buf...)
		return dst
	}
	s.buf = append(dst.buf[:0], s.buf...)
	return s
}

func (c *toy) snapshot() (any, error) {
	s := c.toyState.copyInto(toyState{}, c.bug)
	if c.bug == "aliases a slice" {
		s = c.toyState // buf still points at the live array
	}
	return &s, nil
}

func (c *toy) restore(snap any) error {
	c.toyState = snap.(*toyState).copyInto(c.toyState, c.bug)
	return nil
}

// TestSnapshotOracleSelfTest proves the oracle is not vacuous: it must
// pass a correct copy method and report each seeded snapshot bug.
func TestSnapshotOracleSelfTest(t *testing.T) {
	for _, tc := range []struct {
		bug     string
		wantBad bool
	}{
		{"none", false},
		{"forgets a scalar", true},
		{"aliases a slice", true},
	} {
		t.Run(tc.bug, func(t *testing.T) {
			build := func() forkable { return newToy(tc.bug) }
			warm := func(f forkable) {
				for i := 0; i < 5; i++ {
					f.step()
				}
			}
			diffs := checkFork(build, warm, 3)
			if got := len(diffs) > 0; got != tc.wantBad {
				t.Fatalf("oracle reported %v, want a report: %v", diffs, tc.wantBad)
			}
			t.Logf("report: %v", diffs)
		})
	}
}

// TestSnapshotOracleWalker checks the walker's own rules on small
// values: pointer sharing stops the walk, slice and map sharing is an
// error, and exempt fields are skipped.
func TestSnapshotOracleWalker(t *testing.T) {
	type node struct {
		v    int
		next *node
	}
	shared := &node{v: 1}
	a := &node{v: 2, next: shared}
	a2 := &node{v: 2, next: shared}
	if d := deepDiff(a, a2); len(d) != 0 {
		t.Errorf("shared pointer reported: %v", d)
	}
	cyc1, cyc2 := &node{v: 3}, &node{v: 3}
	cyc1.next, cyc2.next = cyc1, cyc2
	if d := deepDiff(cyc1, cyc2); len(d) != 0 {
		t.Errorf("equal cycles reported: %v", d)
	}
	cyc2.v = 4
	if d := deepDiff(cyc1, cyc2); len(d) == 0 {
		t.Error("differing cycles not reported")
	}
	buf := []float64{1, 2}
	if d := deepDiff(&struct{ s []float64 }{buf}, &struct{ s []float64 }{buf}); len(d) == 0 {
		t.Error("shared slice not reported")
	}
	m := map[int]int{1: 1}
	if d := deepDiff(&struct{ m map[int]int }{m}, &struct{ m map[int]int }{map[int]int{1: 1}}); len(d) != 0 {
		t.Errorf("equal maps reported: %v", d)
	}
	if d := deepDiff(&struct{ m map[int]int }{m}, &struct{ m map[int]int }{m}); len(d) == 0 {
		t.Error("shared map not reported")
	}
	if d := deepDiff([]float64{0, 1}, []float64{0, 1.5}); len(d) != 1 {
		t.Errorf("scalar slice difference reported as %v, want one entry", d)
	}
}
