package aquarius

import (
	"testing"

	"cachesync/internal/addr"
	"cachesync/internal/interconnect"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
	"cachesync/internal/workload"
)

func TestTwoTierBasic(t *testing.T) {
	a := New(DefaultConfig(2))
	var got uint64
	err := a.Run([]func(*sim.Proc){
		func(p *sim.Proc) {
			p.WriteClass(100, 77, interconnect.Data)
			p.Write(0, 1) // sync-tier traffic
		},
		func(p *sim.Proc) {
			p.Compute(200)
			got = p.ReadClass(100, interconnect.Data)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Errorf("lower tier read %d, want 77 (latest version)", got)
	}
	if a.Counts.Get("xbar.access") != 2 {
		t.Errorf("xbar accesses = %d, want 2", a.Counts.Get("xbar.access"))
	}
}

func TestBankContention(t *testing.T) {
	a := New(DefaultConfig(2))
	err := a.Run([]func(*sim.Proc){
		func(p *sim.Proc) {
			for k := 0; k < 10; k++ {
				p.WriteClass(8, uint64(k), interconnect.Data) // same bank every time
			}
		},
		func(p *sim.Proc) {
			for k := 0; k < 10; k++ {
				p.ReadClass(16, interconnect.Data) // also bank 0 (16 % 8 == 0)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts.Get("xbar.bank-wait") == 0 {
		t.Error("no bank contention recorded despite same-bank hammering")
	}
}

func TestBankInterleaving(t *testing.T) {
	a := New(DefaultConfig(1))
	err := a.Run([]func(*sim.Proc){func(p *sim.Proc) {
		for k := 0; k < 64; k++ {
			p.ReadClass(addr.Addr(k), interconnect.Data)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	loads := a.BankLoads()
	for i, n := range loads {
		if n != 8 {
			t.Errorf("bank %d load = %d, want 8 (interleaved)", i, n)
		}
	}
}

func TestInstructionBuffer(t *testing.T) {
	a := New(DefaultConfig(1))
	err := a.Run([]func(*sim.Proc){func(p *sim.Proc) {
		for k := 0; k < 5; k++ {
			for pc := 0; pc < 8; pc++ {
				p.InstrFetch(addr.Addr(1000 + pc)) // tight loop
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts.Get("ibuf.miss") != 8 {
		t.Errorf("ibuf misses = %d, want 8 (first pass only)", a.Counts.Get("ibuf.miss"))
	}
	if a.Counts.Get("ibuf.hit") != 32 {
		t.Errorf("ibuf hits = %d, want 32", a.Counts.Get("ibuf.hit"))
	}
}

func TestHardAtomsOnSyncTier(t *testing.T) {
	// The Figure 11 split: locks on the sync bus, data through the
	// crossbar; both compose on one timeline and the lock totals are
	// exact.
	const procs, iters = 4, 10
	a := New(DefaultConfig(procs))
	l := workload.Layout{G: a.Sync.Geometry()}
	lock := l.LockAddr(0)
	ws := make([]func(*sim.Proc), procs)
	for i := range ws {
		i := i
		ws[i] = func(p *sim.Proc) {
			for k := 0; k < iters; k++ {
				syncprim.Acquire(p, syncprim.CacheLock, lock)
				v := p.ReadClass(500, interconnect.Data) // shared counter in the lower tier
				p.WriteClass(500, v+1, interconnect.Data)
				syncprim.Release(p, syncprim.CacheLock, lock)
				p.Compute(int64(5 + i))
			}
		}
	}
	if err := a.Run(ws); err != nil {
		t.Fatal(err)
	}
	if got := a.mem[500]; got != procs*iters {
		t.Errorf("lower-tier counter = %d, want %d (lock on sync tier must serialize crossbar data)",
			got, procs*iters)
	}
	if a.Sync.Counts.Get("lock.acquired") != procs*iters {
		t.Errorf("sync tier acquired = %d", a.Sync.Counts.Get("lock.acquired"))
	}
}

func TestBankSweepContention(t *testing.T) {
	// More banks, less bank-wait: the crossbar scales where a bus
	// would serialize (the Figure 11 rationale).
	waitFor := func(banks int) int64 {
		cfg := DefaultConfig(4)
		cfg.Banks = banks
		a := New(cfg)
		ws := make([]func(*sim.Proc), 4)
		for i := range ws {
			i := i
			ws[i] = func(p *sim.Proc) {
				for k := 0; k < 40; k++ {
					p.ReadClass(addr.Addr(i*40+k), interconnect.Data)
				}
			}
		}
		if err := a.Run(ws); err != nil {
			t.Fatal(err)
		}
		return a.Counts.Get("xbar.bank-wait")
	}
	one := waitFor(1)
	eight := waitFor(8)
	if eight >= one {
		t.Errorf("bank-wait with 8 banks (%d) not below 1 bank (%d)", eight, one)
	}
	if one == 0 {
		t.Error("a single bank under 4 processors should queue")
	}
}
