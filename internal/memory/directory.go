package memory

import (
	"math/bits"

	"cachesync/internal/addr"
)

// Directory is the per-block presence record of a partial-broadcast
// (directory-based) system such as Censier-Feautrier 1978: main
// memory tracks which caches hold each block, so consistency messages
// are sent point-to-point to the recorded holders instead of being
// broadcast. The paper's Section A.2 contrasts this with full
// broadcast, whose operation "is entirely distributed and parallel,
// hence is fast" at the price of a more complex memory.
//
// A block's presence is one bitmask over cache IDs (IDs ≥ 64 are not
// representable; simulated machines are far smaller). A block keeps its
// entry once recorded, empty or not, so no update allocates after a
// block's first.
type Directory struct {
	presence map[addr.Block]uint64
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{presence: make(map[addr.Block]uint64)}
}

// Add records that cache id holds block b.
func (d *Directory) Add(b addr.Block, id int) { d.presence[b] |= 1 << uint(id) }

// Remove clears cache id's presence for block b.
func (d *Directory) Remove(b addr.Block, id int) {
	if m, ok := d.presence[b]; ok {
		d.presence[b] = m &^ (1 << uint(id))
	}
}

// SetSole records cache id as the only holder of block b (after an
// invalidating acquisition).
func (d *Directory) SetSole(b addr.Block, id int) { d.presence[b] = 1 << uint(id) }

// Members appends to dst the caches recorded as holding block b, in
// ascending ID order, excluding exclude (pass a negative value to
// exclude nobody), and returns the extended slice.
func (d *Directory) Members(dst []int, b addr.Block, exclude int) []int {
	m := d.presence[b]
	if exclude >= 0 {
		m &^= 1 << uint(exclude)
	}
	for ; m != 0; m &= m - 1 {
		dst = append(dst, bits.TrailingZeros64(m))
	}
	return dst
}

// Set replaces block b's presence record with mask, in Mask's form (0
// clears it). It is the restore hook of the bounded model checker,
// which re-materializes directory state when revisiting an explored
// state.
func (d *Directory) Set(b addr.Block, mask uint64) {
	if _, ok := d.presence[b]; ok || mask != 0 {
		d.presence[b] = mask
	}
}

// Mask returns block b's presence set as a bitmask over cache IDs —
// the allocation-free accessor of the model checker's state encoder.
func (d *Directory) Mask(b addr.Block) uint64 { return d.presence[b] }

// Holders returns the number of caches recorded for block b.
func (d *Directory) Holders(b addr.Block) int { return bits.OnesCount64(d.presence[b]) }
