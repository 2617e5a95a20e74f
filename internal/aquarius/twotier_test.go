package aquarius

import (
	"testing"

	"cachesync/internal/addr"
	"cachesync/internal/interconnect"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
)

// TestIbufFIFOEviction pins the replacement policy: with a 4-entry
// buffer and a 5-address loop, FIFO evicts exactly the line about to
// be refetched, so every fetch after the first pass misses.
func TestIbufFIFOEviction(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.IBufEntries = 4
	a := New(cfg)
	err := a.Run([]func(*sim.Proc){func(p *sim.Proc) {
		for k := 0; k < 3; k++ {
			for pc := 0; pc < 5; pc++ {
				p.InstrFetch(addr.Addr(1000 + pc))
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Counts.Get("ibuf.miss"); got != 15 {
		t.Errorf("ibuf.miss = %d, want 15 (FIFO thrashes a loop one entry too big)", got)
	}
	if got := a.Counts.Get("ibuf.hit"); got != 0 {
		t.Errorf("ibuf.hit = %d, want 0", got)
	}
}

// TestIbufEvictionDeterministic is the satellite regression for the
// old map-iteration eviction: a fetch stream that overflows the
// buffer must produce byte-identical counters on every run.
func TestIbufEvictionDeterministic(t *testing.T) {
	run := func() map[string]int64 {
		cfg := DefaultConfig(2)
		cfg.IBufEntries = 8
		a := New(cfg)
		ws := make([]func(*sim.Proc), 2)
		for i := range ws {
			i := i
			ws[i] = func(p *sim.Proc) {
				// A strided stream over 3x the buffer size: constant
				// eviction, and hits depend entirely on eviction order.
				for k := 0; k < 200; k++ {
					p.InstrFetch(addr.Addr(2000 + i*64 + (k*7)%24))
				}
			}
		}
		if err := a.Run(ws); err != nil {
			t.Fatal(err)
		}
		return a.Stats().Snapshot()
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("trial %d: stats size %d vs %d", trial, len(again), len(first))
		}
		for k, v := range first {
			if again[k] != v {
				t.Fatalf("trial %d: counter %s = %d, first run %d", trial, k, again[k], v)
			}
		}
	}
}

// twoTierProgs is a hand-classified workload: instruction fetches and
// private data through the lower tier, a lock and its guarded record
// on the synchronization tier.
func twoTierProgs(a *System, procs, iters int) []func(*sim.Proc) {
	lock := addr.Addr(0)
	ws := make([]func(*sim.Proc), procs)
	for i := range ws {
		i := i
		ws[i] = func(p *sim.Proc) {
			for k := 0; k < iters; k++ {
				for pc := 0; pc < 4; pc++ {
					p.InstrFetch(addr.Addr(4096 + i*64 + pc))
				}
				syncprim.Acquire(p, syncprim.CacheLock, lock)
				v := p.ReadClass(900, interconnect.Data)
				p.WriteClass(900, v+1, interconnect.Data)
				syncprim.Release(p, syncprim.CacheLock, lock)
				p.WriteClass(addr.Addr(8192+i*64+k), uint64(k), interconnect.Data)
				p.Compute(int64(3 + i))
			}
		}
	}
	return ws
}

// TestRoutedTwoTierEndToEnd runs a classified lock workload on a
// Routed machine: sync traffic serializes the lower-tier record, and
// the route counters split the reference stream.
func TestRoutedTwoTierEndToEnd(t *testing.T) {
	const procs, iters = 4, 10
	cfg := DefaultConfig(procs)
	cfg.Routed = true
	a := New(cfg)
	if err := a.Run(twoTierProgs(a, procs, iters)); err != nil {
		t.Fatal(err)
	}
	if got := a.mem[900]; got != procs*iters {
		t.Errorf("guarded lower-tier record = %d, want %d", got, procs*iters)
	}
	if got := a.Sync.Counts.Get("lock.acquired"); got != procs*iters {
		t.Errorf("lock.acquired = %d, want %d", got, procs*iters)
	}
	syncRefs, total := a.BroadcastFraction()
	if syncRefs == 0 || total == 0 {
		t.Fatalf("broadcast fraction %d/%d: route counters missing", syncRefs, total)
	}
	if instr := a.Sync.Counts.Get("route.instr"); instr != int64(procs*iters*4) {
		t.Errorf("route.instr = %d, want %d", instr, procs*iters*4)
	}
	if syncRefs >= total {
		t.Errorf("every reference counted as broadcast (%d/%d); data/instr split missing", syncRefs, total)
	}
}

// TestRoutedDeterministic: byte-identical stats and final clock
// across repeated routed runs, local and remote.
func TestRoutedDeterministic(t *testing.T) {
	for _, remote := range []int{0, 64} {
		run := func() (int64, map[string]int64) {
			cfg := DefaultConfig(4)
			cfg.Routed = true
			cfg.RemoteCycles = remote
			a := New(cfg)
			if err := a.Run(twoTierProgs(a, 4, 8)); err != nil {
				t.Fatal(err)
			}
			return a.Clock(), a.Stats().Snapshot()
		}
		c1, s1 := run()
		c2, s2 := run()
		if c1 != c2 {
			t.Errorf("remote=%d: clock %d vs %d", remote, c1, c2)
		}
		if len(s1) != len(s2) {
			t.Fatalf("remote=%d: stats size %d vs %d", remote, len(s1), len(s2))
		}
		for k, v := range s1 {
			if s2[k] != v {
				t.Errorf("remote=%d: counter %s: %d vs %d", remote, k, v, s2[k])
			}
		}
	}
}

// TestRemoteTierSlowsLockHandoff: moving the plain-data tier a
// network hop away lengthens the run (the guarded record is remote)
// without changing its outcome.
func TestRemoteTierSlowsLockHandoff(t *testing.T) {
	clockFor := func(remote int) int64 {
		cfg := DefaultConfig(4)
		cfg.Routed = true
		cfg.RemoteCycles = remote
		a := New(cfg)
		if err := a.Run(twoTierProgs(a, 4, 8)); err != nil {
			t.Fatal(err)
		}
		if got := a.mem[900]; got != 32 {
			t.Fatalf("remote=%d: record = %d, want 32", remote, got)
		}
		return a.Clock()
	}
	local := clockFor(0)
	far := clockFor(128)
	if far <= local {
		t.Errorf("remote tier at 128 cycles (%d total) not slower than local (%d)", far, local)
	}
	if got := clockFor(0); got != local {
		t.Errorf("repeated local run clock %d vs %d", got, local)
	}
}

// TestRoutedRejectsUnclassified: the tiered machine refuses untagged
// references instead of guessing a tier.
func TestRoutedRejectsUnclassified(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Routed = true
	a := New(cfg)
	err := a.Run([]func(*sim.Proc){func(p *sim.Proc) {
		p.Write(10, 1)
	}})
	if err == nil {
		t.Fatal("unclassified reference on a Routed machine did not error")
	}
}
