package addr

import "slices"

// Journal records the blocks whose state changed, for a consumer that
// re-examines only those blocks: the incremental coherence checker
// attaches one to every cache and to the memory of a simulated system.
// Writers call Add once per change; the consumer reads Sorted and then
// calls Reset, which keeps the backing array, so a journal that is
// drained regularly stops allocating.
type Journal struct {
	blocks []Block
}

// Add records block b. A repeat of the last block is dropped, and a
// full backing array is sorted and deduplicated before it grows, so
// the journal stays within a small multiple of the distinct blocks
// recorded since the last Reset however many writes hit them.
func (j *Journal) Add(b Block) {
	n := len(j.blocks)
	if n > 0 && j.blocks[n-1] == b {
		return
	}
	if n == cap(j.blocks) {
		j.compact()
		j.blocks = slices.Grow(j.blocks, len(j.blocks))
	}
	j.blocks = append(j.blocks, b)
}

// Sorted returns the distinct recorded blocks in ascending order. The
// slice aliases the journal: it is valid until the next Add or Reset.
func (j *Journal) Sorted() []Block {
	j.compact()
	return j.blocks
}

// Reset empties the journal, keeping its storage.
func (j *Journal) Reset() { j.blocks = j.blocks[:0] }

func (j *Journal) compact() {
	slices.Sort(j.blocks)
	j.blocks = slices.Compact(j.blocks)
}
