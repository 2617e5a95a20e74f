package addr

import (
	"slices"
	"testing"
)

func TestJournalSortedDistinct(t *testing.T) {
	var j Journal
	for _, b := range []Block{9, 2, 2, 7, 2, 9} {
		j.Add(b)
	}
	if got := j.Sorted(); !slices.Equal(got, []Block{2, 7, 9}) {
		t.Fatalf("Sorted() = %v, want [2 7 9]", got)
	}
	j.Reset()
	if got := j.Sorted(); len(got) != 0 {
		t.Fatalf("after Reset, Sorted() = %v", got)
	}
}

// TestJournalStaysBounded: a long run of writes over a few blocks —
// cache hits between two bus transactions — grows the journal with the
// blocks, not the writes, and a drained journal stops allocating.
func TestJournalStaysBounded(t *testing.T) {
	var j Journal
	for i := 0; i < 100_000; i++ {
		j.Add(Block(i % 10))
	}
	if cap(j.blocks) > 64 {
		t.Errorf("100000 writes to 10 blocks left a journal of capacity %d", cap(j.blocks))
	}
	if got := j.Sorted(); !slices.Equal(got, []Block{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Errorf("Sorted() = %v", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			j.Add(Block(i % 10))
		}
		j.Sorted()
		j.Reset()
	})
	if allocs != 0 {
		t.Errorf("drained journal allocates %.1f times per round", allocs)
	}
}
