package hybrid

import (
	"math/bits"

	"repro/internal/isa"
)

// ownerTable is a fixed-size open-addressed hash table from a candidate
// line to its packed owner (component index + arbitration slot). It is
// the composite's attribution memory — the same shape as the prefetch
// package's creditTable (2× sized, linear probing, backward-shift
// delete, deterministic eviction at capacity), with one deliberate
// semantic difference: putIfAbsent never overwrites a live entry.
//
// First-proposer-wins matters for attribution correctness. The prefetch
// queue dedups candidates — when two components propose the same line,
// only the FIRST proposal claims the queue slot and becomes the issued
// prefetch, so a last-writer-wins table (like creditTable.put) would
// credit the useful fill to a component whose proposal was discarded.
//
// Like creditTable, the whole value is copied as state (see copyInto).
type ownerTable struct {
	keys  []isa.Line
	vals  []uint32
	live  []bool
	mask  uint64
	shift uint
	n     int
	limit int
}

// newOwnerTable builds a table holding at most limit entries.
func newOwnerTable(limit int) ownerTable {
	size := 16
	for size < 2*limit {
		size <<= 1
	}
	return ownerTable{
		keys:  make([]isa.Line, size),
		vals:  make([]uint32, size),
		live:  make([]bool, size),
		mask:  uint64(size - 1),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		limit: limit,
	}
}

func (t *ownerTable) home(l isa.Line) uint64 {
	const phi = 0x9E3779B97F4A7C15
	return (uint64(l) * phi) >> t.shift
}

// get returns the owner recorded for line l, if any.
func (t *ownerTable) get(l isa.Line) (uint32, bool) {
	for h := t.home(l); ; h = (h + 1) & t.mask {
		if !t.live[h] {
			return 0, false
		}
		if t.keys[h] == l {
			return t.vals[h], true
		}
	}
}

// putIfAbsent records l -> owner unless l already has one, evicting a
// resident entry deterministically when the table is full. It reports
// whether the entry was installed.
func (t *ownerTable) putIfAbsent(l isa.Line, owner uint32) bool {
	for h := t.home(l); ; h = (h + 1) & t.mask {
		if !t.live[h] {
			if t.n >= t.limit {
				t.evictNear(l)
			}
			// Re-probe — eviction may have shifted the chain.
			t.insert(l, owner)
			return true
		}
		if t.keys[h] == l {
			return false
		}
	}
}

// insert places a key known to be absent, assuming free space.
func (t *ownerTable) insert(l isa.Line, owner uint32) {
	for h := t.home(l); ; h = (h + 1) & t.mask {
		if !t.live[h] {
			t.keys[h], t.vals[h], t.live[h] = l, owner, true
			t.n++
			return
		}
	}
}

// evictNear deletes the live entry at or cyclically after l's home
// position.
func (t *ownerTable) evictNear(l isa.Line) {
	for h := t.home(l); ; h = (h + 1) & t.mask {
		if t.live[h] {
			t.del(t.keys[h])
			return
		}
	}
}

// del removes l, if present, compacting the probe chain behind it.
func (t *ownerTable) del(l isa.Line) {
	h := t.home(l)
	for {
		if !t.live[h] {
			return
		}
		if t.keys[h] == l {
			break
		}
		h = (h + 1) & t.mask
	}
	i := h
	t.live[i] = false
	t.n--
	for j := (i + 1) & t.mask; t.live[j]; j = (j + 1) & t.mask {
		k := t.home(t.keys[j])
		// Move j's entry into the hole at i unless its home position
		// lies strictly inside the cyclic interval (i, j].
		var inInterval bool
		if i < j {
			inInterval = k > i && k <= j
		} else {
			inInterval = k > i || k <= j
		}
		if !inInterval {
			t.keys[i], t.vals[i], t.live[i] = t.keys[j], t.vals[j], true
			t.live[j] = false
			i = j
		}
	}
}

// reset empties the table.
func (t *ownerTable) reset() {
	clear(t.live)
	t.n = 0
}
