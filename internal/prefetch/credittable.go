package prefetch

import (
	"math/bits"

	"repro/internal/isa"
)

// creditTable is a fixed-size open-addressed hash table from a
// prefetched target line to the prediction-table slot that emitted it.
// It replaces the Go maps previously used for usefulness/confidence
// credit tracking: those sat directly on the per-fetch hot path
// (mapassign/mapaccess/delete on every probe hit and demand use), and
// their arbitrary-order eviction at capacity was nondeterministic.
//
// The table is sized to 2× its logical capacity, probes linearly, and
// compacts probe chains on delete (backward-shift), so entries are
// retained exactly while under capacity. At capacity an insert evicts
// the resident entry nearest the new key's home position — losing a
// credit is harmless (the predicting entry just misses one counter
// increment), and unlike map iteration the victim is deterministic.
//
// Its configuration follows from its size, so the whole value is
// copied as state (see copyInto) — the whole open-addressed array, not
// just the live entries, so a copy reproduces probe order and eviction
// choices bit-for-bit.
type creditTable struct {
	keys  []isa.Line
	vals  []int32
	live  []bool
	mask  uint64
	shift uint
	n     int
	limit int
}

// newCreditTable builds a table holding at most limit entries.
func newCreditTable(limit int) creditTable {
	size := 16
	for size < 2*limit {
		size <<= 1
	}
	return creditTable{
		keys:  make([]isa.Line, size),
		vals:  make([]int32, size),
		live:  make([]bool, size),
		mask:  uint64(size - 1),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		limit: limit,
	}
}

func (t *creditTable) home(l isa.Line) uint64 {
	const phi = 0x9E3779B97F4A7C15
	return (uint64(l) * phi) >> t.shift
}

// len returns the number of stored credits.
func (t *creditTable) len() int { return t.n }

// get returns the slot recorded for line l, if any.
func (t *creditTable) get(l isa.Line) (int32, bool) {
	for h := t.home(l); ; h = (h + 1) & t.mask {
		if !t.live[h] {
			return 0, false
		}
		if t.keys[h] == l {
			return t.vals[h], true
		}
	}
}

// put records l → slot, updating in place when l is already present and
// evicting a resident credit when the table is full.
func (t *creditTable) put(l isa.Line, slot int32) {
	for h := t.home(l); ; h = (h + 1) & t.mask {
		if !t.live[h] {
			if t.n >= t.limit {
				// Full: drop the resident entry nearest the new key's
				// home position, then claim its position.
				t.evictNear(l)
			}
			// Re-probe — eviction may have shifted the chain.
			t.insert(l, slot)
			return
		}
		if t.keys[h] == l {
			t.vals[h] = slot
			return
		}
	}
}

// insert places a key known to be absent, assuming free space.
func (t *creditTable) insert(l isa.Line, slot int32) {
	for h := t.home(l); ; h = (h + 1) & t.mask {
		if !t.live[h] {
			t.keys[h], t.vals[h], t.live[h] = l, slot, true
			t.n++
			return
		}
	}
}

// evictNear deletes the live entry at or cyclically after l's home
// position.
func (t *creditTable) evictNear(l isa.Line) {
	for h := t.home(l); ; h = (h + 1) & t.mask {
		if t.live[h] {
			t.del(t.keys[h])
			return
		}
	}
}

// del removes l, if present, compacting the probe chain behind it.
func (t *creditTable) del(l isa.Line) {
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
func (t *creditTable) reset() {
	clear(t.live)
	t.n = 0
}
