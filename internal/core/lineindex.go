package core

import (
	"math/bits"

	"repro/internal/isa"
)

// lineSlot is one lineIndex bucket: key, value and occupancy packed into
// 16 bytes so a probe touches a single cache line.
type lineSlot struct {
	key  isa.Line
	val  int32
	live bool
}

// lineIndex is a small open-addressed hash table from cache-line
// address to a signed 32-bit value, used to replace the O(capacity)
// linear scans in the prefetch queue (line → slot) and the recent-
// demand filter (line → occurrence count). It is sized at construction
// to at least 4× the expected entry count, so linear probes stay short,
// and uses backward-shift deletion so no tombstones accumulate on the
// high-churn simulation hot path. Its mask and shift follow from the
// table size, so the whole value is copied as state (see copyInto).
type lineIndex struct {
	slots []lineSlot
	mask  uint64
	shift uint
}

// newLineIndex builds an index able to hold n entries comfortably
// (table size: next power of two ≥ 4n, minimum 16).
func newLineIndex(n int) lineIndex {
	size := 16
	for size < 4*n {
		size <<= 1
	}
	return lineIndex{
		slots: make([]lineSlot, size),
		mask:  uint64(size - 1),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
}

// home returns the key's preferred table position (Fibonacci hashing:
// line addresses are near-sequential, so multiplicative mixing is
// needed to spread them).
func (t *lineIndex) home(l isa.Line) uint64 {
	const phi = 0x9E3779B97F4A7C15
	return (uint64(l) * phi) >> t.shift
}

// get returns the value stored for l, if any.
func (t *lineIndex) get(l isa.Line) (int32, bool) {
	slots := t.slots
	for h := t.home(l); ; h = (h + 1) & t.mask {
		s := &slots[h&uint64(len(slots)-1)]
		if !s.live {
			return 0, false
		}
		if s.key == l {
			return s.val, true
		}
	}
}

// set inserts or updates l's value. The caller bounds the number of
// distinct keys (queue capacity / filter size), so the table never
// fills.
func (t *lineIndex) set(l isa.Line, v int32) {
	slots := t.slots
	for h := t.home(l); ; h = (h + 1) & t.mask {
		s := &slots[h&uint64(len(slots)-1)]
		if !s.live {
			*s = lineSlot{key: l, val: v, live: true}
			return
		}
		if s.key == l {
			s.val = v
			return
		}
	}
}

// inc adds 1 to l's value, inserting it with value 1 when absent — a
// single-probe combination of get and set for the occurrence counting
// done by the recent-demand filter.
func (t *lineIndex) inc(l isa.Line) {
	slots := t.slots
	for h := t.home(l); ; h = (h + 1) & t.mask {
		s := &slots[h&uint64(len(slots)-1)]
		if !s.live {
			*s = lineSlot{key: l, val: 1, live: true}
			return
		}
		if s.key == l {
			s.val++
			return
		}
	}
}

// dec subtracts 1 from l's value, deleting the entry when it reaches
// zero. A no-op when l is absent.
func (t *lineIndex) dec(l isa.Line) {
	slots := t.slots
	for h := t.home(l); ; h = (h + 1) & t.mask {
		s := &slots[h&uint64(len(slots)-1)]
		if !s.live {
			return
		}
		if s.key == l {
			if s.val--; s.val <= 0 {
				t.delAt(h)
			}
			return
		}
	}
}

// del removes l, if present, compacting the probe chain behind it
// (backward-shift deletion for linear probing).
func (t *lineIndex) del(l isa.Line) {
	h := t.home(l)
	for {
		if !t.slots[h].live {
			return
		}
		if t.slots[h].key == l {
			break
		}
		h = (h + 1) & t.mask
	}
	t.delAt(h)
}

// delAt removes the entry at table position h, compacting the probe
// chain behind it.
func (t *lineIndex) delAt(h uint64) {
	i := h
	t.slots[i].live = false
	for j := (i + 1) & t.mask; t.slots[j].live; j = (j + 1) & t.mask {
		k := t.home(t.slots[j].key)
		// Move j's entry into the hole at i unless its home position
		// lies strictly inside the cyclic interval (i, j] — in that
		// case the entry is already as close to home as it can get.
		inInterval := false
		if i < j {
			inInterval = k > i && k <= j
		} else {
			inInterval = k > i || k <= j
		}
		if !inInterval {
			t.slots[i] = t.slots[j]
			t.slots[j].live = false
			i = j
		}
	}
}
