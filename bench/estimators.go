package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is not modified; an empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match spreads computed from saved results.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// hist is a log-linear histogram of durations: histSub buckets per
// power of two of nanoseconds (1 ns wide below histSub ns), so a bucket
// is at most 1/histSub ≈ 1.6% wide. It takes fixed memory however many
// requests a loop times, so the harness adds nothing to the peak RSS it
// reports.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSub     = 64
	histShift   = 6 // log2(histSub)
	histBuckets = 36 * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - 1 // 2^e <= ns < 2^(e+1)
	i := (e-histShift+1)*histSub + int(ns>>(e-histShift)) - histSub
	return min(i, histBuckets-1)
}

// bucketBounds returns the lower bound and width, in ns, of bucket i.
func bucketBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub + histShift - 1
	sub := i % histSub
	return float64(int64(histSub+sub) << (e - histShift)), float64(int64(1) << (e - histShift))
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

// quantile returns the q-quantile in milliseconds, interpolating by rank
// inside the bucket that holds it, with the same rank convention as
// quantile above.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var before float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < before+float64(c) {
			lo, width := bucketBounds(i)
			return (lo + width*(rank-before+0.5)/float64(c)) / 1e6
		}
		before += float64(c)
	}
	lo, width := bucketBounds(histBuckets - 1)
	return (lo + width) / 1e6
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
