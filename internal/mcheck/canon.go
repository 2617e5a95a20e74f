package mcheck

import "cachesync/internal/protocol"

// Processor-symmetry reduction. Under full broadcast every cache is
// interchangeable (the paper's Section E treats all caches
// identically): the transition relation commutes with any permutation
// of processor indices, provided everything that names a processor is
// permuted together — cache frames, the memory lock tag's owner, the
// directory presence bits, and the data values themselves (actions()
// writes value p+1 for word writes and unlocks, p+1+Procs for
// whole-block writes, so the written values carry the writer's
// identity). The checker therefore explores one representative per
// orbit: each reached state is mapped to the lexicographically least
// key over all P! index permutations, shrinking the reachable space by
// up to P! while preserving every invariant verdict — the invariants
// are themselves permutation-symmetric. Counterexample traces are
// rebuilt in canonical frames and de-canonicalized on replay
// (decanonicalizeTrace), so rendered traces and sim replay still work.

// permutations returns every permutation of 0..n-1 in a fixed
// deterministic order with the identity first.
func permutations(n int) [][]int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := k; i < n; i++ {
			idx[k], idx[i] = idx[i], idx[k]
			rec(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	rec(0)
	return out
}

// canonizer maps state keys to their orbit representative.
type canonizer struct {
	lay   keyLayout
	perms [][]int // perms[p][i] = source cache placed at slot i
	invs  [][]int // invs[p][old cache] = its slot under perms[p]
	buf   []uint64
	best  []uint64
}

func newCanonizer(lay keyLayout) *canonizer {
	c := &canonizer{
		lay:   lay,
		perms: permutations(lay.procs),
		buf:   make([]uint64, lay.total),
		best:  make([]uint64, lay.total),
	}
	c.invs = make([][]int, len(c.perms))
	for p, perm := range c.perms {
		inv := make([]int, lay.procs)
		for i, o := range perm {
			inv[o] = i
		}
		c.invs[p] = inv
	}
	return c
}

// remapVal rewrites a data value under the permutation described by
// inv. Values are 0 (initial) or carry a writer identity: p+1 for a
// word write or unlock, p+1+procs for a whole-block write. Anything
// outside that range carries no processor identity and stays fixed.
func remapVal(v uint64, inv []int, procs int) uint64 {
	if v == 0 || v > uint64(2*procs) {
		return v
	}
	if v <= uint64(procs) {
		return uint64(inv[v-1]) + 1
	}
	return uint64(inv[v-1-uint64(procs)]) + 1 + uint64(procs)
}

// canonicalize returns the lexicographically least permuted image of
// key and the permutation that achieves it (canonical slot i holds the
// original cache perm[i]); among permutations whose images tie, the
// first in c.perms wins. The returned slice aliases canonizer scratch
// (or key itself when the identity wins) and is valid until the next
// call.
func (c *canonizer) canonicalize(key []uint64) ([]uint64, []int) {
	best := key
	bestPerm := c.perms[0]
	for p := 1; p < len(c.perms); p++ {
		if c.permuteBelow(key, best, c.perms[p], c.invs[p]) {
			c.buf, c.best = c.best, c.buf
			best = c.best
			bestPerm = c.perms[p]
		}
	}
	return best, bestPerm
}

// image is a permuted key under construction, word by word in key
// order, against the least key found so far.
type image struct {
	dst, bound []uint64
	below      bool // an earlier word fell below bound's: write the rest unchecked
}

// put writes word pos of the image. It reports false when the word
// exceeds bound's and every earlier word equals bound's: the image can
// no longer be less than bound, and its remaining words are moot.
func (im *image) put(pos int, v uint64) bool {
	if !im.below {
		if v > im.bound[pos] {
			return false
		}
		im.below = v < im.bound[pos]
	}
	im.dst[pos] = v
	return true
}

// permuteBelow builds the permuted image of src in c.buf — slot i
// receives src's cache perm[i], with owner fields, directory bits, and
// writer-identifying data values rewritten through inv — and reports
// whether it is lexicographically less than bound. It abandons the
// image at the first word that decides it is not — for most images the
// first control word — leaving a partial image in c.buf.
func (c *canonizer) permuteBelow(src, bound []uint64, perm, inv []int) bool {
	lay := &c.lay
	procs := lay.procs
	im := image{dst: c.buf, bound: bound}
	for bi := 0; bi < lay.blocks; bi++ {
		base := bi * lay.blockStride
		for i := 0; i < lay.ctrlWords; i++ {
			var v uint64
			for ci := 4 * i; ci < min(4*i+4, procs); ci++ {
				o := perm[ci]
				lane := (src[base+o/4] >> uint((o%4)*16)) & 0xffff
				v |= lane << uint((ci%4)*16)
			}
			if !im.put(base+i, v) {
				return false
			}
		}
		pos := base + lay.ctrlWords
		for ci := 0; ci < procs; ci++ {
			srcOff := base + lay.ctrlWords + perm[ci]*lay.words
			for w := 0; w < lay.words; w++ {
				if !im.put(pos, remapVal(src[srcOff+w], inv, procs)) {
					return false
				}
				pos++
			}
		}
		for w := 0; w < lay.words; w++ {
			if !im.put(pos, remapVal(src[pos], inv, procs)) {
				return false
			}
			pos++
		}
		lw := src[pos]
		var out uint64
		if lw&1 != 0 {
			out = 1 | lw&2 | uint64(inv[lw>>2&7])<<2
		}
		mask := lw >> 8 & 0xff
		var nm uint64
		for o := 0; o < procs; o++ {
			if mask&(1<<uint(o)) != 0 {
				nm |= 1 << uint(inv[o])
			}
		}
		if !im.put(pos, out|nm<<8) {
			return false
		}
		pos++
		for w := 0; w < lay.words; w++ {
			if !im.put(pos, remapVal(src[pos], inv, procs)) {
				return false
			}
			pos++
		}
	}
	return im.below
}

// remapAction rewrites a canonical-frame action into the frame where
// canonical slot i is actual processor perm[i]. The value is recomputed
// from the new processor index exactly as actions() constructs it, so
// the remapped action is the one the permuted run would enumerate.
func remapAction(a Action, perm []int, procs int) Action {
	a.Proc = perm[a.Proc]
	if a.Kind == ActOp {
		switch {
		case a.Op == protocol.OpWriteBlock:
			a.Value = uint64(a.Proc + 1 + procs)
		case a.Value != 0:
			a.Value = uint64(a.Proc + 1)
		}
	}
	return a
}

// decanonicalizeTrace converts a trace whose k-th action lives in the
// canonical frame of the (k-1)-th canonical state into an executable
// trace over actual machine states, by replaying it and tracking the
// canonicalizing permutation at every step. By equivariance the
// replayed run stays in the same orbits, so the final state violates
// the same invariants; the violations recomputed on the actual run are
// returned so rendered messages name the actual processor indices.
func decanonicalizeTrace(o Options, trace []Action) ([]Action, []string) {
	m := newMachine(o)
	out := make([]Action, 0, len(trace))
	perm := m.canon.perms[0] // the root state is symmetric: identity frame
	var viols []string
	for k, a := range trace {
		aa := remapAction(a, perm, o.Procs)
		out = append(out, aa)
		viols = m.step(aa)
		if k < len(trace)-1 {
			_, perm = m.canon.canonicalize(m.encodeKey())
		}
	}
	return out, viols
}
