// Package ptest is the protocol conformance harness: it runs
// randomized workloads against every registered protocol and checks
// the paper's two implementation requirements (Section C.1) as
// machine-checkable invariants —
//
//  1. conflicting accesses are serialized (single-writer, exact RMW
//     and lock counter totals, monotonic single-writer reads), and
//  2. every access sees the latest version of the data (clean copies
//     match memory, all copies identical under update protocols,
//     dirty data is never lost).
package ptest

import (
	"fmt"
	"math/rand"
	"testing"

	"cachesync/internal/addr"
	"cachesync/internal/cache"
	"cachesync/internal/coherence"
	"cachesync/internal/protocol"
	"cachesync/internal/sim"
)

// Options sizes a conformance run.
type Options struct {
	Procs      int
	Blocks     int // size of the shared address pool, in blocks
	OpsPerProc int
	Seed       int64
	CacheWays  int // small values force evictions
}

// DefaultOptions returns a contentious little machine.
func DefaultOptions(seed int64) Options {
	return Options{Procs: 4, Blocks: 8, OpsPerProc: 150, Seed: seed, CacheWays: 4}
}

// NewSystem builds a sim.System for the protocol with geometry
// adjusted for its constraints.
func NewSystem(p protocol.Protocol, o Options) *sim.System {
	cfg := sim.DefaultConfig(p)
	cfg.Procs = o.Procs
	if p.Features().OneWordBlocks {
		cfg.Geometry = addr.MustGeometry(1, 1)
	}
	cfg.Cache = cache.Config{Sets: 1, Ways: o.CacheWays}
	return sim.New(cfg)
}

// CheckInvariants verifies the post-quiescence coherence invariants
// (delegating to internal/coherence).
func CheckInvariants(t *testing.T, s *sim.System) {
	t.Helper()
	for _, v := range coherence.Check(s) {
		t.Errorf("%s: %s", s.Protocol().Name(), v)
	}
}

// AttachOnlineChecker wires the online coherence checker to run after
// every bus transaction; violations fail the test at the moment they
// appear, not just at quiescence.
func AttachOnlineChecker(t *testing.T, s *sim.System) {
	t.Helper()
	online := coherence.NewOnline(s)
	s.OnTxn = func() {
		for _, v := range online.Check() {
			t.Errorf("online (%s, cycle %d): %s", s.Protocol().Name(), s.Clock(), v)
		}
	}
}

// RunSingleWriterMonotonic runs the single-writer/many-reader
// workload: processor i owns word i of every block (forcing false
// sharing within blocks) and writes an increasing sequence to it;
// every processor reads the other processors' words and asserts the
// values never go backwards. A stale read — a violation of the
// latest-version requirement — shows up as a decrease.
func RunSingleWriterMonotonic(t *testing.T, p protocol.Protocol, o Options) *sim.System {
	t.Helper()
	s := NewSystem(p, o)
	g := s.Geometry()
	// Address ownership: processor i owns word i%bw of the blocks in
	// its group. With wide blocks every processor hits every block
	// (false sharing); with one-word blocks (Rudolph-Segall) ownership
	// degenerates to whole blocks, keeping the single-writer property.
	groups := (o.Procs + g.BlockWords - 1) / g.BlockWords
	ws := make([]func(*sim.Proc), o.Procs)
	errCh := make(chan error, o.Procs)
	for i := range ws {
		i := i
		rng := rand.New(rand.NewSource(o.Seed + int64(i)))
		ws[i] = func(pr *sim.Proc) {
			last := make(map[addr.Addr]uint64)
			seq := uint64(0)
			myWord := addr.Addr(i % g.BlockWords)
			myGroup := i / g.BlockWords
			for k := 0; k < o.OpsPerProc; k++ {
				if rng.Intn(2) == 0 {
					// Write my own word of a block in my group.
					blk := addr.Block(rng.Intn((o.Blocks+groups-1)/groups)*groups + myGroup)
					seq++
					pr.Write(g.Base(blk)+myWord, seq)
				} else {
					// Read someone's word of a random block.
					blk := addr.Block(rng.Intn(o.Blocks))
					w := addr.Addr(rng.Intn(g.BlockWords))
					a := g.Base(blk) + w
					v := pr.Read(a)
					if prev, ok := last[a]; ok && v < prev {
						errCh <- fmt.Errorf("proc %d: word %d went backwards: %d after %d (stale read)",
							i, a, v, prev)
						return
					}
					last[a] = v
				}
				if rng.Intn(8) == 0 {
					pr.Compute(int64(rng.Intn(20)))
				}
			}
		}
	}
	if err := s.Run(ws); err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	close(errCh)
	for err := range errCh {
		t.Errorf("%s: %v", p.Name(), err)
	}
	return s
}

// RunRMWCounters hammers a few shared counters with atomic RMW
// increments mixed with plain reads and unrelated writes; the totals
// must be exact.
func RunRMWCounters(t *testing.T, p protocol.Protocol, o Options) *sim.System {
	t.Helper()
	s := NewSystem(p, o)
	g := s.Geometry()
	const counters = 3
	incs := make([][]int, o.Procs)
	ws := make([]func(*sim.Proc), o.Procs)
	for i := range ws {
		i := i
		incs[i] = make([]int, counters)
		rng := rand.New(rand.NewSource(o.Seed ^ int64(i*7919)))
		ws[i] = func(pr *sim.Proc) {
			for k := 0; k < o.OpsPerProc/3; k++ {
				c := rng.Intn(counters)
				a := g.Base(addr.Block(c))
				switch rng.Intn(4) {
				case 0, 1:
					pr.RMW(a, func(v uint64) uint64 { return v + 1 })
					incs[i][c]++
				case 2:
					pr.Read(a)
				case 3:
					// Unrelated traffic to cause evictions and sharing.
					blk := addr.Block(counters + rng.Intn(o.Blocks))
					pr.Write(g.Base(blk), uint64(k))
				}
			}
		}
	}
	if err := s.Run(ws); err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	for c := 0; c < counters; c++ {
		want := uint64(0)
		for i := range incs {
			want += uint64(incs[i][c])
		}
		if got := latestWord(s, g.Base(addr.Block(c))); got != want {
			t.Errorf("%s: counter %d = %d, want %d (lost or duplicated RMW)", p.Name(), c, got, want)
		}
	}
	return s
}

// latestWord returns the globally latest value of a word: a dirty
// cached copy if one exists, else memory.
func latestWord(s *sim.System, a addr.Addr) uint64 {
	b := s.Geometry().BlockOf(a)
	for _, c := range s.Caches {
		if c.Protocol().IsDirty(c.State(b)) {
			if v, ok := c.ReadWord(a); ok {
				return v
			}
		}
	}
	return s.Mem.ReadWord(a)
}

// RunMigration moves a single logical process across processors: each
// "hop" writes state on one processor and validates it on the next —
// the second occasion for providing the latest version in Section C.3.
func RunMigration(t *testing.T, p protocol.Protocol, o Options) *sim.System {
	t.Helper()
	s := NewSystem(p, o)
	g := s.Geometry()
	hops := o.OpsPerProc / 10
	if hops < 4 {
		hops = 4
	}
	token := g.Base(0) // handoff word
	state := g.Base(1) // "process state" word
	ws := make([]func(*sim.Proc), o.Procs)
	for i := range ws {
		i := i
		ws[i] = func(pr *sim.Proc) {
			for h := 0; h < hops; h++ {
				if h%o.Procs != i {
					continue
				}
				// Wait for my turn (spin on the token in cache).
				for pr.Read(token) != uint64(h) {
					pr.Compute(3)
				}
				if h > 0 {
					if got := pr.Read(state); got != uint64(h-1) {
						t.Errorf("%s: hop %d on proc %d: state = %d, want %d",
							p.Name(), h, i, got, h-1)
					}
				}
				pr.Write(state, uint64(h))
				pr.Write(token, uint64(h+1))
			}
		}
	}
	if err := s.Run(ws); err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return s
}
