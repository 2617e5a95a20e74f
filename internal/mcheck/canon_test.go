package mcheck

import (
	"fmt"
	"reflect"
	"testing"

	"cachesync/internal/protocol"
	_ "cachesync/internal/protocol/all"
)

func TestPermutations(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 2, 3: 6, 4: 24, 5: 120} {
		perms := permutations(n)
		if len(perms) != want {
			t.Errorf("permutations(%d): %d permutations, want %d", n, len(perms), want)
		}
		seen := map[string]bool{}
		for _, p := range perms {
			seen[fmt.Sprint(p)] = true
		}
		if len(seen) != want {
			t.Errorf("permutations(%d): duplicates among %d", n, len(perms))
		}
		for i, v := range perms[0] {
			if v != i {
				t.Fatalf("permutations(%d): first permutation %v is not the identity", n, perms[0])
			}
		}
	}
}

// keyString gives packed keys a map-key form for test bookkeeping.
func keyString(k []uint64) string {
	b := make([]byte, 0, 8*len(k))
	for _, w := range k {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(w>>uint(s)))
		}
	}
	return string(b)
}

// reachedKeys explores o and returns a copy of every distinct visited
// key.
func reachedKeys(t *testing.T, o Options) [][]uint64 {
	t.Helper()
	var keys [][]uint64
	o.stateHook = func(k []uint64) { keys = append(keys, append([]uint64(nil), k...)) }
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(keys)) != res.States {
		t.Fatalf("stateHook saw %d states, Result says %d", len(keys), res.States)
	}
	return keys
}

// permuteKey writes the whole permuted image of src into dst: dst's
// cache slot i receives src's cache perm[i], with owner fields,
// directory bits, and writer-identifying data values rewritten through
// inv. It is the exhaustive oracle for canonicalize, which builds the
// same images word by word and abandons them early.
func permuteKey(src, dst []uint64, perm, inv []int, lay keyLayout) {
	procs := lay.procs
	for bi := 0; bi < lay.blocks; bi++ {
		base := bi * lay.blockStride
		for i := 0; i < lay.ctrlWords; i++ {
			dst[base+i] = 0
		}
		pos := base + lay.ctrlWords
		for ci := 0; ci < procs; ci++ {
			o := perm[ci]
			lane := (src[base+o/4] >> uint((o%4)*16)) & 0xffff
			dst[base+ci/4] |= lane << uint((ci%4)*16)
			srcOff := base + lay.ctrlWords + o*lay.words
			for w := 0; w < lay.words; w++ {
				dst[pos+w] = remapVal(src[srcOff+w], inv, procs)
			}
			pos += lay.words
		}
		for w := 0; w < lay.words; w++ {
			dst[pos] = remapVal(src[pos], inv, procs)
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
		dst[pos] = out | nm<<8
		pos++
		for w := 0; w < lay.words; w++ {
			dst[pos] = remapVal(src[pos], inv, procs)
			pos++
		}
	}
}

// oracleCanonicalize is canonicalize without the early exit: it builds
// every permuted image in full and keeps the first least one.
func oracleCanonicalize(c *canonizer, key []uint64) (least []uint64, perm []int, ties int) {
	least = append([]uint64(nil), key...)
	perm, ties = c.perms[0], 1
	img := make([]uint64, len(key))
	for p := 1; p < len(c.perms); p++ {
		permuteKey(key, img, c.perms[p], c.invs[p], c.lay)
		switch compareKey(img, least) {
		case -1:
			copy(least, img)
			perm, ties = c.perms[p], 1
		case 0:
			ties++
		}
	}
	return least, perm, ties
}

// TestCanonicalizeMatchesOracle checks the early-exit canonicalize
// against the exhaustive oracle on every state reached with symmetry
// off: the same least key and the same first minimal permutation.
// The configurations cover one and two blocks, the lock and update
// paths, and p5, whose lanes span two control words; each must reach
// states where several permutations tie for the least image (the
// all-invalid root is one).
func TestCanonicalizeMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		proto                string
		procs, blocks, depth int
	}{
		{"bitar", 3, 1, 6},
		{"bitar", 3, 2, 4},
		{"dragon", 3, 1, 6},
		{"dragon", 3, 2, 4},
		{"bitar", 5, 1, 4},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s-p%d-b%d", tc.proto, tc.procs, tc.blocks), func(t *testing.T) {
			t.Parallel()
			o := Options{Protocol: protocol.MustNew(tc.proto), Procs: tc.procs, Blocks: tc.blocks, Words: 2, Depth: tc.depth}
			od := o.withDefaults()
			c := newCanonizer(makeKeyLayout(od.Procs, od.Blocks, od.Words))
			tied := 0
			keys := reachedKeys(t, o)
			for _, k := range keys {
				want, wantPerm, ties := oracleCanonicalize(c, k)
				got, gotPerm := c.canonicalize(k)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotPerm, wantPerm) {
					t.Fatalf("key %v: canonicalize gives %v under %v, oracle %v under %v", k, got, gotPerm, want, wantPerm)
				}
				if ties > 1 {
					tied++
				}
			}
			t.Logf("%d states, %d with tied permutations", len(keys), tied)
			if tied == 0 {
				t.Fatal("no reached state has tied permutations")
			}
		})
	}
}

// TestCanonicalizeOrbit checks, on real reached states, that
// canonicalize is constant on permutation orbits and that the returned
// permutation actually achieves the canonical key.
func TestCanonicalizeOrbit(t *testing.T) {
	o := Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 1, Words: 2, Depth: 4}
	od := o.withDefaults()
	keys := reachedKeys(t, o)
	lay := makeKeyLayout(od.Procs, od.Blocks, od.Words)
	c := newCanonizer(lay)
	img := make([]uint64, lay.total)
	for _, k := range keys {
		canon, perm := c.canonicalize(k)
		canon = append([]uint64(nil), canon...)
		inv := make([]int, len(perm))
		for i, p := range perm {
			inv[p] = i
		}
		permuteKey(k, img, perm, inv, lay)
		if !reflect.DeepEqual(img, canon) {
			t.Fatalf("returned permutation %v does not reproduce the canonical key\nkey   %v\ngot   %v\ncanon %v", perm, k, img, canon)
		}
		for pi, p := range c.perms {
			permuteKey(k, img, p, c.invs[pi], lay)
			got, _ := c.canonicalize(img)
			if !reflect.DeepEqual(append([]uint64(nil), got...), canon) {
				t.Fatalf("canonicalize not orbit-invariant under %v:\nkey %v\ngot %v\nwant %v", p, k, got, canon)
			}
		}
	}
}

// checkSymmetryEquivalence runs one protocol with and without symmetry
// reduction and checks (a) identical verdicts, (b) a genuine reduction
// — the quotient explores at most half the states — and (c) the
// quotient is exact: canonicalizing the full run's states yields
// exactly the reduced run's state count.
func checkSymmetryEquivalence(t *testing.T, name string, procs, depth int) {
	o := Options{Protocol: protocol.MustNew(name), Procs: procs, Blocks: 1, Depth: depth, Workers: 2}
	full := reachedKeys(t, o)

	so := o
	so.Symmetry = true
	so.Protocol = protocol.MustNew(name)
	var reduced int64
	so.stateHook = func([]uint64) { reduced++ }
	sres, err := Run(so)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Counterexample != nil {
		t.Fatalf("violation only under symmetry: %v", sres.Counterexample.Violations)
	}
	if sres.States > int64(len(full))/2 {
		t.Errorf("symmetry saved too little: %d of %d states", sres.States, len(full))
	}

	od := o.withDefaults()
	c := newCanonizer(makeKeyLayout(od.Procs, od.Blocks, od.Words))
	orbits := map[string]bool{}
	for _, k := range full {
		canon, _ := c.canonicalize(k)
		orbits[keyString(canon)] = true
	}
	if int64(len(orbits)) != sres.States {
		t.Errorf("quotient inexact: full run has %d orbits, symmetry run visited %d states",
			len(orbits), sres.States)
	}
}

func TestSymmetryEquivalence(t *testing.T) {
	for _, name := range protocol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkSymmetryEquivalence(t, name, 3, 4)
		})
	}
}

// TestSymmetryEquivalenceP5 covers the widened processor range: the
// 120-permutation orbit machinery must stay exact past the old p=4
// cap (shallower depth — the unreduced p5 space grows fast).
func TestSymmetryEquivalenceP5(t *testing.T) {
	for _, name := range []string{"bitar", "illinois"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkSymmetryEquivalence(t, name, 5, 3)
		})
	}
}

// TestSymmetryMutant checks that fault injection is caught identically
// under symmetry reduction: same minimal trace length, a replayable
// de-canonicalized trace, and the same violation classes.
func TestSymmetryMutant(t *testing.T) {
	for _, mc := range []struct{ proto, mut string }{
		{"bitar", "ignore-lock"},
		{"illinois", "drop-invalidate"},
		{"berkeley", "skip-writeback"},
	} {
		mc := mc
		t.Run(mc.proto+"+"+mc.mut, func(t *testing.T) {
			t.Parallel()
			run := func(sym bool) *Counterexample {
				mut, err := Mutate(protocol.MustNew(mc.proto), mc.mut)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(Options{Protocol: mut, Procs: 3, Blocks: 1, Depth: 5, Workers: 2, Symmetry: sym})
				if err != nil {
					t.Fatal(err)
				}
				if res.Counterexample == nil {
					t.Fatalf("mutant not caught (symmetry=%v)", sym)
				}
				return res.Counterexample
			}
			plain, sym := run(false), run(true)
			if len(plain.Trace) != len(sym.Trace) {
				t.Fatalf("trace lengths differ: %d plain vs %d symmetry", len(plain.Trace), len(sym.Trace))
			}
			if len(sym.Violations) == 0 {
				t.Fatal("symmetry counterexample carries no violations")
			}

			// The de-canonicalized trace must actually execute and end in
			// a violating state.
			mut, err := Mutate(protocol.MustNew(mc.proto), mc.mut)
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Protocol: mut, Procs: 3, Blocks: 1, Depth: 5}
			m := newMachine(o.withDefaults())
			var viols []string
			for _, a := range sym.Trace {
				viols = m.step(a)
			}
			if !reflect.DeepEqual(viols, sym.Violations) {
				t.Fatalf("replaying the de-canonicalized trace gives %v, counterexample says %v", viols, sym.Violations)
			}
		})
	}
}

// TestDeterministicWorkersMutant pins down full determinism of the
// counterexample under both modes: any worker count must produce a
// byte-identical minimal trace.
func TestDeterministicWorkersMutant(t *testing.T) {
	for _, sym := range []bool{false, true} {
		var want []Action
		for _, w := range []int{1, 2, 8} {
			mut, err := Mutate(protocol.MustNew("bitar"), "ignore-lock")
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Options{Protocol: mut, Procs: 3, Blocks: 1, Depth: 5, Workers: w, Symmetry: sym})
			if err != nil {
				t.Fatal(err)
			}
			if res.Counterexample == nil {
				t.Fatalf("workers=%d symmetry=%v: mutant not caught", w, sym)
			}
			if want == nil {
				want = res.Counterexample.Trace
			} else if !reflect.DeepEqual(want, res.Counterexample.Trace) {
				t.Fatalf("workers=%d symmetry=%v: trace %v differs from workers=1 trace %v",
					w, sym, res.Counterexample.Trace, want)
			}
		}
	}
}
