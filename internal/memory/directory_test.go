package memory

import (
	"testing"
	"testing/quick"
)

func TestDirectoryAddRemove(t *testing.T) {
	d := NewDirectory()
	if got := d.Members(nil, 1, -1); len(got) != 0 {
		t.Fatalf("fresh directory has members: %v", got)
	}
	d.Add(1, 2)
	d.Add(1, 0)
	d.Add(1, 2) // idempotent
	if got := d.Members(nil, 1, -1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Members = %v, want [0 2]", got)
	}
	if got := d.Members(nil, 1, 2); len(got) != 1 || got[0] != 0 {
		t.Errorf("Members excluding 2 = %v, want [0]", got)
	}
	d.Remove(1, 0)
	if d.Holders(1) != 1 {
		t.Errorf("Holders = %d", d.Holders(1))
	}
	d.Remove(1, 2)
	if d.Holders(1) != 0 {
		t.Error("directory not empty after removals")
	}
	d.Remove(1, 9) // absent: no-op
}

func TestDirectorySetSole(t *testing.T) {
	d := NewDirectory()
	d.Add(3, 0)
	d.Add(3, 1)
	d.Add(3, 2)
	d.SetSole(3, 1)
	if got := d.Members(nil, 3, -1); len(got) != 1 || got[0] != 1 {
		t.Errorf("after SetSole: %v, want [1]", got)
	}
}

// Property: Members is always sorted and never contains the excluded
// cache or duplicates.
func TestDirectoryMembersProperty(t *testing.T) {
	f := func(adds []uint8, exclude uint8) bool {
		d := NewDirectory()
		for _, a := range adds {
			d.Add(5, int(a%16))
		}
		got := d.Members(nil, 5, int(exclude%16))
		seen := map[int]bool{}
		prev := -1
		for _, id := range got {
			if id <= prev || seen[id] || id == int(exclude%16) {
				return false
			}
			seen[id] = true
			prev = id
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDirectoryMaskRoundTrip: Set takes Mask's form back, Members
// appends to the caller's buffer, and no update allocates once a
// block has an entry — the model checker restores the directory on
// every explored transition.
func TestDirectoryMaskRoundTrip(t *testing.T) {
	d := NewDirectory()
	d.Set(2, 0b1011)
	if d.Mask(2) != 0b1011 || d.Holders(2) != 3 {
		t.Fatalf("Mask = %b, Holders = %d after Set(0b1011)", d.Mask(2), d.Holders(2))
	}
	buf := []int{7}
	if got := d.Members(buf, 2, 1); len(got) != 3 || got[0] != 7 || got[1] != 0 || got[2] != 3 {
		t.Fatalf("Members appended %v, want [7 0 3]", got)
	}
	d.Set(2, 0)
	if d.Holders(2) != 0 || len(d.Members(nil, 2, -1)) != 0 {
		t.Fatal("Set(0) left holders")
	}
	scratch := make([]int, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		d.Add(2, 1)
		d.SetSole(2, 0)
		d.Remove(2, 0)
		d.Set(2, 0b110)
		scratch = d.Members(scratch[:0], 2, -1)
	})
	if allocs != 0 {
		t.Fatalf("directory updates allocate %.1f times per round", allocs)
	}
}
