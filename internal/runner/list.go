package runner

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseList parses one sweep axis: an "a..b" range or a comma list of
// integers, every value at least min (1 for processor counts, 0 for
// remote latencies). It is the one list parser behind cmd/cachesim's
// -sweep-procs and -sweep-remote and cmd/tables -sweep procs=.
func ParseList(spec string, min int) ([]int, error) {
	if lo, hi, ok := strings.Cut(spec, ".."); ok {
		a, err1 := strconv.Atoi(strings.TrimSpace(lo))
		b, err2 := strconv.Atoi(strings.TrimSpace(hi))
		if err1 != nil || err2 != nil || a < min || b < a {
			return nil, fmt.Errorf("bad range %q", spec)
		}
		out := make([]int, 0, b-a+1)
		for n := a; n <= b; n++ {
			out = append(out, n)
		}
		return out, nil
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < min {
			return nil, fmt.Errorf("bad entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}
