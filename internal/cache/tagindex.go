package cache

import (
	"math/bits"

	"cachesync/internal/addr"
)

// tagIndex maps a held tag to its frame: a fixed-capacity
// open-addressing table with linear probing and backward-shift
// deletion. It replaces the runtime map on the per-probe and
// per-snoop-per-cache paths — the hottest lookups in the engine.
// Capacity is fixed at twice the frame count (a tag occupies exactly
// one frame, so the population never exceeds Sets×Ways), keeping the
// load factor at or below one half and probe chains short.
type tagIndex struct {
	keys  []uint64 // block+1; 0 marks an empty slot
	vals  []*line
	mask  uint64
	shift uint
}

// tagHashMult is 2^64 divided by the golden ratio: Fibonacci hashing
// spreads consecutive block numbers across the table's high bits.
const tagHashMult = 0x9e3779b97f4a7c15

func newTagIndex(frames int) *tagIndex {
	n := 8
	for n < 2*frames {
		n <<= 1
	}
	return &tagIndex{
		keys:  make([]uint64, n),
		vals:  make([]*line, n),
		mask:  uint64(n - 1),
		shift: uint(64 - bits.TrailingZeros(uint(n))),
	}
}

func (ti *tagIndex) home(k uint64) uint64 { return (k * tagHashMult) >> ti.shift }

func (ti *tagIndex) get(b addr.Block) *line {
	k := uint64(b) + 1
	for i := ti.home(k); ; i = (i + 1) & ti.mask {
		switch ti.keys[i] {
		case k:
			return ti.vals[i]
		case 0:
			return nil
		}
	}
}

func (ti *tagIndex) put(b addr.Block, ln *line) {
	k := uint64(b) + 1
	for i := ti.home(k); ; i = (i + 1) & ti.mask {
		if ti.keys[i] == k || ti.keys[i] == 0 {
			ti.keys[i] = k
			ti.vals[i] = ln
			return
		}
	}
}

func (ti *tagIndex) del(b addr.Block) {
	k := uint64(b) + 1
	i := ti.home(k)
	for ti.keys[i] != k {
		if ti.keys[i] == 0 {
			return
		}
		i = (i + 1) & ti.mask
	}
	// Backward-shift deletion: pull every displaced follower of the
	// probe chain into the vacated slot, so lookups need no tombstones.
	j := i
	for {
		ti.keys[i], ti.vals[i] = 0, nil
		for {
			j = (j + 1) & ti.mask
			if ti.keys[j] == 0 {
				return
			}
			h := ti.home(ti.keys[j])
			if (j-h)&ti.mask >= (j-i)&ti.mask {
				break
			}
		}
		ti.keys[i], ti.vals[i] = ti.keys[j], ti.vals[j]
		i = j
	}
}

// reset empties the index. It writes only the occupied slots: clearing
// the whole pointer array would pay a write barrier per slot while the
// collector marks, and Cache.Restore resets once per checker transition.
func (ti *tagIndex) reset() {
	for i, k := range ti.keys {
		if k != 0 {
			ti.keys[i], ti.vals[i] = 0, nil
		}
	}
}
