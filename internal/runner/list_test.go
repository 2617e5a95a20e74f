package runner

import (
	"reflect"
	"testing"
)

// TestParseList pins the one sweep-list parser: ranges and comma
// lists with spaces accepted, the minimum enforced per axis, and every
// malformed shape refused.
func TestParseList(t *testing.T) {
	cases := []struct {
		spec string
		min  int
		want []int // nil: refused
	}{
		{"2..8", 1, []int{2, 3, 4, 5, 6, 7, 8}},
		{"1,2,4,8", 1, []int{1, 2, 4, 8}},
		{" 3 , 5 ", 1, []int{3, 5}},
		{"0", 1, nil},      // no zero-processor machine
		{"0", 0, []int{0}}, // a local lower tier
		{"0..2", 1, nil},   // range below the minimum
		{"0,16", 0, []int{0, 16}},
		{"8..2", 1, nil}, // descending range
		{"x", 1, nil},    // not a number
		{"1..x", 1, nil}, // range end not a number
		{"1,,2", 1, nil}, // empty entry
		{"", 0, nil},     // empty list
		{"-4", 0, nil},   // negative entry
		{"2,-1", 1, nil}, // negative entry after a good one
	}
	for _, c := range cases {
		got, err := ParseList(c.spec, c.min)
		if c.want == nil {
			if err == nil {
				t.Errorf("ParseList(%q, %d) = %v, want an error", c.spec, c.min, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseList(%q, %d) = %v, %v; want %v", c.spec, c.min, got, err, c.want)
		}
	}
}
