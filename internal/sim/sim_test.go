package sim

import (
	"strings"
	"testing"

	"cachesync/internal/addr"
	"cachesync/internal/cache"
	"cachesync/internal/core"
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"

	_ "cachesync/internal/protocol/all"
)

func coreSystem(procs int) *System {
	cfg := DefaultConfig(core.Protocol{})
	cfg.Procs = procs
	return New(cfg)
}

func run(t *testing.T, s *System, ws []func(*Proc)) {
	t.Helper()
	if err := s.Run(ws); err != nil {
		t.Fatal(err)
	}
}

func TestSingleProcReadWrite(t *testing.T) {
	s := coreSystem(1)
	var got uint64
	run(t, s, []func(*Proc){func(p *Proc) {
		p.Write(10, 42)
		got = p.Read(10)
	}})
	if got != 42 {
		t.Errorf("read-after-write = %d, want 42", got)
	}
	if s.Clock() <= 0 {
		t.Error("clock did not advance")
	}
}

func TestReadMissUnsharedGetsWritePrivilege(t *testing.T) {
	// Figure 1 end-to-end: read miss with no other copy -> W.S.C, so
	// the following write needs no bus access.
	s := coreSystem(2)
	run(t, s, []func(*Proc){func(p *Proc) {
		p.Read(0)
		if st := s.Caches[0].State(0); st != core.WSC {
			t.Errorf("state after unshared read = %v, want W.S.C", s.proto.StateName(st))
		}
		before := s.Bus.Counts.Total("bus.")
		p.Write(0, 1)
		if after := s.Bus.Counts.Total("bus."); after != before {
			t.Errorf("write after unshared read used the bus (%d -> %d txns)", before, after)
		}
	}, nil})
}

func TestProducerConsumerValueFlows(t *testing.T) {
	s := coreSystem(2)
	var got uint64
	run(t, s, []func(*Proc){
		func(p *Proc) { p.Write(4, 99) },
		func(p *Proc) {
			p.Compute(500) // let the producer go first
			got = p.Read(4)
		},
	})
	if got != 99 {
		t.Errorf("consumer read %d, want 99", got)
	}
	// The consumer's fetch must have come cache-to-cache from the
	// producer (the source), dirty status attached.
	if st := s.Caches[1].State(1); st != core.RSD {
		t.Errorf("consumer state = %v, want R.S.D", s.proto.StateName(st))
	}
	if st := s.Caches[0].State(1); st != core.R {
		t.Errorf("producer state = %v, want R (source transferred)", s.proto.StateName(st))
	}
}

func TestLockExclusionAndCounter(t *testing.T) {
	// N processors increment a counter under the cache lock; the total
	// must be exact.
	const procs, iters = 4, 25
	s := coreSystem(procs)
	lockAddr := addr.Addr(0) // word 0 of block 0: the atom's first block
	ws := make([]func(*Proc), procs)
	for i := range ws {
		ws[i] = func(p *Proc) {
			for k := 0; k < iters; k++ {
				v := p.LockRead(lockAddr)
				p.Write(1, v) // scribble inside the locked atom
				p.UnlockWrite(lockAddr, v+1)
			}
		}
	}
	run(t, s, ws)
	var final uint64
	for _, c := range s.Caches {
		if v, ok := c.ReadWord(lockAddr); ok {
			final = v
		}
	}
	if final != procs*iters {
		t.Errorf("counter = %d, want %d", final, procs*iters)
	}
	if got := s.Counts.Get("lock.acquired"); got != procs*iters {
		t.Errorf("lock.acquired = %d, want %d", got, procs*iters)
	}
}

func TestBusyWaitNoRetries(t *testing.T) {
	// Section E.4's first purpose: no unsuccessful retries on the bus.
	// Each lock acquisition should cost at most one ReadX/Upgrade, no
	// matter how long the wait.
	const procs, iters = 4, 10
	s := coreSystem(procs)
	ws := make([]func(*Proc), procs)
	for i := range ws {
		ws[i] = func(p *Proc) {
			for k := 0; k < iters; k++ {
				v := p.LockRead(0)
				p.Compute(50) // long critical section
				p.UnlockWrite(0, v+1)
			}
		}
	}
	run(t, s, ws)
	acquired := s.Counts.Get("lock.acquired")
	attempts := s.Bus.Counts.Get("bus.readx") + s.Bus.Counts.Get("bus.upgrade")
	// Each acquisition needs at most one bus fetch attempt plus the
	// denied first attempt that armed the busy-wait register.
	if attempts > 2*acquired {
		t.Errorf("%d lock bus attempts for %d acquisitions: busy wait is retrying on the bus", attempts, acquired)
	}
	if s.Counts.Get("lock.broadcast") == 0 {
		t.Error("no unlock broadcasts despite contention")
	}
}

func TestDeterminism(t *testing.T) {
	build := func() (int64, map[string]int64) {
		s := coreSystem(3)
		ws := make([]func(*Proc), 3)
		for i := range ws {
			i := i
			ws[i] = func(p *Proc) {
				for k := 0; k < 20; k++ {
					a := addr.Addr((k*7 + i*13) % 64)
					p.Write(a, uint64(k))
					p.Read(addr.Addr((k * 3) % 64))
					if k%5 == 0 {
						v := p.LockRead(128)
						p.UnlockWrite(128, v+1)
					}
				}
			}
		}
		if err := s.Run(ws); err != nil {
			t.Fatal(err)
		}
		return s.Clock(), s.Stats().Snapshot()
	}
	c1, s1 := build()
	c2, s2 := build()
	if c1 != c2 {
		t.Fatalf("clocks differ: %d vs %d", c1, c2)
	}
	for k, v := range s1 {
		if s2[k] != v {
			t.Errorf("counter %s differs: %d vs %d", k, v, s2[k])
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := coreSystem(2)
	err := s.Run([]func(*Proc){
		func(p *Proc) {
			p.LockRead(0)
			// Never unlocks.
		},
		func(p *Proc) {
			p.Compute(100)
			p.LockRead(0) // waits forever
		},
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestEvictionWritebackPreservesData(t *testing.T) {
	cfg := DefaultConfig(core.Protocol{})
	cfg.Procs = 1
	cfg.Cache = cache.Config{Sets: 1, Ways: 2} // tiny cache forces evictions
	s := New(cfg)
	run(t, s, []func(*Proc){func(p *Proc) {
		p.Write(0, 11)  // block 0
		p.Write(4, 22)  // block 1
		p.Write(8, 33)  // block 2: evicts block 0 (dirty)
		p.Write(12, 44) // block 3: evicts block 1
		if v := p.Read(0); v != 11 {
			t.Errorf("after eviction, word 0 = %d, want 11", v)
		}
	}})
	if s.Counts.Get("evict.flush") == 0 {
		t.Error("no eviction flushes recorded")
	}
}

func TestLockPurgeToMemory(t *testing.T) {
	// Section E.3 "Two Concerns": purging a locked block writes a
	// lock bit to memory; the lock survives, other requesters are
	// denied, and the owner's unlock reclaims and releases it.
	cfg := DefaultConfig(core.Protocol{})
	cfg.Procs = 2
	cfg.Cache = cache.Config{Sets: 1, Ways: 1}
	s := New(cfg)
	run(t, s, []func(*Proc){
		func(p *Proc) {
			p.LockRead(0)  // lock block 0
			p.Write(4, 1)  // block 1 evicts the locked block -> lock purge
			p.Compute(200) // hold the lock while P1 tries
			p.UnlockWrite(0, 7)
		},
		func(p *Proc) {
			p.Compute(60)
			v := p.LockRead(0) // must be denied by the memory lock tag, then wait
			if v != 7 {
				t.Errorf("waiter read %d, want 7", v)
			}
			p.UnlockWrite(0, 8)
		},
	})
	if s.Counts.Get("evict.lockpurge") == 0 {
		t.Error("no lock purge recorded")
	}
	if s.Counts.Get("lock.reclaim") == 0 {
		t.Error("owner did not reclaim the lock from memory")
	}
	if tag := s.Mem.GetLockTag(0); tag.Locked {
		t.Error("lock tag still set after unlock")
	}
}

func TestRMWAtomicAcrossProtocols(t *testing.T) {
	for _, name := range all.Everything {
		name := name
		t.Run(name, func(t *testing.T) {
			p := protocol.MustNew(name)
			cfg := DefaultConfig(p)
			if p.Features().OneWordBlocks {
				cfg.Geometry = addr.MustGeometry(1, 1)
			}
			cfg.Procs = 4
			s := New(cfg)
			const iters = 20
			ws := make([]func(*Proc), cfg.Procs)
			for i := range ws {
				ws[i] = func(pr *Proc) {
					for k := 0; k < iters; k++ {
						pr.RMW(3, func(v uint64) uint64 { return v + 1 })
					}
				}
			}
			run(t, s, ws)
			// The final value must be exactly procs*iters: read it via
			// a fresh RMW that returns the old value.
			var final uint64
			done := make(chan struct{})
			s2ws := make([]func(*Proc), cfg.Procs)
			_ = s2ws
			close(done)
			// Read from memory after flushing: use the stats-free path.
			final = s.Mem.ReadWord(3)
			for _, c := range s.Caches {
				if v, ok := c.ReadWord(3); ok && c.Protocol().IsDirty(c.State(s.Geometry().BlockOf(3))) {
					final = v
				}
			}
			if final != uint64(cfg.Procs*iters) {
				t.Errorf("counter = %d, want %d", final, cfg.Procs*iters)
			}
		})
	}
}

func TestRMWMemoryAtomic(t *testing.T) {
	s := coreSystem(3)
	const iters = 15
	ws := make([]func(*Proc), 3)
	for i := range ws {
		ws[i] = func(p *Proc) {
			for k := 0; k < iters; k++ {
				p.RMWMemory(5, func(v uint64) uint64 { return v + 1 })
			}
		}
	}
	run(t, s, ws)
	if v := s.Mem.ReadWord(5); v != 3*iters {
		t.Errorf("memory counter = %d, want %d", v, 3*iters)
	}
}

func TestTryWriteAbortsOnSteal(t *testing.T) {
	s := coreSystem(2)
	aborted := false
	run(t, s, []func(*Proc){
		func(p *Proc) {
			p.Read(0) // readable copy
			p.Compute(300)
			// By now P1 has taken the block for writing.
			if !p.TryWrite(0, 1) {
				aborted = true
			}
		},
		func(p *Proc) {
			p.Compute(50)
			p.Write(0, 2) // invalidates P0's copy
		},
	})
	if !aborted {
		t.Error("TryWrite should have aborted after the block was stolen")
	}
}

func TestWriteBlockNoFetchSkipsFetch(t *testing.T) {
	s := coreSystem(2)
	run(t, s, []func(*Proc){func(p *Proc) {
		p.WriteBlock(8, []uint64{1, 2, 3, 4})
		if v := p.Read(9); v != 2 {
			t.Errorf("word 9 = %d, want 2", v)
		}
	}, nil})
	if got := s.Bus.Counts.Get("bus.writenofetch"); got != 1 {
		t.Errorf("bus.writenofetch = %d, want 1", got)
	}
	if got := s.Bus.Counts.Get("bus.readx") + s.Bus.Counts.Get("bus.read"); got != 0 {
		t.Errorf("block write fetched data: %d fetches", got)
	}
}

func TestWriteBlockLoweredFetches(t *testing.T) {
	// Without Feature 9, the same block write must fetch the block.
	p := protocol.MustNew("illinois")
	cfg := DefaultConfig(p)
	cfg.Procs = 1
	s := New(cfg)
	run(t, s, []func(*Proc){func(pr *Proc) {
		pr.WriteBlock(8, []uint64{1, 2, 3, 4})
		if v := pr.Read(11); v != 4 {
			t.Errorf("word 11 = %d, want 4", v)
		}
	}})
	if got := s.Bus.Counts.Get("bus.readx"); got != 1 {
		t.Errorf("lowered block write: bus.readx = %d, want 1 (the wasted fetch)", got)
	}
}

func TestIOOperations(t *testing.T) {
	s := coreSystem(2)
	run(t, s, []func(*Proc){
		func(p *Proc) {
			p.Write(0, 5) // dirty block 0 in cache 0
			p.Compute(100)
			// Input: I/O writes the block; cached copies invalidate.
			p.IO(IOInput, 4, []uint64{9, 9, 9, 9})
			if v := p.Read(4); v != 9 {
				t.Errorf("after IO input, word 4 = %d, want 9", v)
			}
		},
		func(p *Proc) {
			p.Compute(50)
			p.IO(IOOutput, 0, nil) // non-paging output: source keeps status
			if st := s.Caches[0].State(0); st != core.WSD {
				t.Errorf("source state after IO output = %v, want unchanged W.S.D", s.proto.StateName(st))
			}
		},
	})
	if s.Counts.Get("io.ioread") != 1 || s.Counts.Get("io.iowrite") != 1 {
		t.Errorf("io counters: %v", s.Counts.Snapshot())
	}
}

func TestOneWordBlockGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rudolph with 4-word blocks should panic")
		}
	}()
	New(DefaultConfig(protocol.MustNew("rudolph")))
}

func TestZeroTimeLockOnHeldBlock(t *testing.T) {
	// Section E.3: lock/unlock in zero (bus) time when the block is
	// already held with write privilege.
	s := coreSystem(1)
	run(t, s, []func(*Proc){func(p *Proc) {
		p.Write(0, 3) // W.S.D
		before := s.Bus.Counts.Total("bus.")
		v := p.LockRead(0)
		p.UnlockWrite(0, v+1)
		if after := s.Bus.Counts.Total("bus."); after != before {
			t.Errorf("lock+unlock used %d bus transactions, want 0", after-before)
		}
	}})
	if s.Counts.Get("lock.unlock-silent") != 1 {
		t.Error("silent unlock not recorded")
	}
}

func TestWriteMissValueCommitsAcrossProtocols(t *testing.T) {
	// Regression: a write whose final phase completes as a local hit
	// (Dragon: fetch -> E -> silent write) must still commit the value.
	for _, name := range all.Everything {
		name := name
		t.Run(name, func(t *testing.T) {
			p := protocol.MustNew(name)
			cfg := DefaultConfig(p)
			if p.Features().OneWordBlocks {
				cfg.Geometry = addr.MustGeometry(1, 1)
			}
			cfg.Procs = 2
			s := New(cfg)
			var got uint64
			run(t, s, []func(*Proc){
				func(pr *Proc) { pr.Write(0, 123) }, // pure write miss
				func(pr *Proc) {
					pr.Compute(200)
					got = pr.Read(0)
				},
			})
			if got != 123 {
				t.Errorf("consumer read %d, want 123", got)
			}
		})
	}
}

// opList is a Program replaying a fixed op sequence.
type opList []Op

func (l *opList) Next(*Proc, Result) (Op, bool) {
	if len(*l) == 0 {
		return Op{}, false
	}
	op := (*l)[0]
	*l = (*l)[1:]
	return op, true
}

// TestLockOpsNeedHardwareLock pins the engine's one hardware-lock
// check: on a protocol without the Section E.3 lock, every lock,
// unlock, lock-prefetch and lock-wait op fails the run with the same
// error whether it arrives as a Program op or a blocking call; the
// hardware-lock protocols run the same ops cleanly.
func TestLockOpsNeedHardwareLock(t *testing.T) {
	for _, name := range all.Everything {
		proto := protocol.MustNew(name)
		newSys := func() *System {
			cfg := DefaultConfig(proto)
			cfg.Procs = 1
			if proto.Features().OneWordBlocks {
				cfg.Geometry = addr.MustGeometry(1, 1)
			}
			return New(cfg)
		}
		if proto.Features().HardwareLock {
			ops := opList{LockReadOp(0), UnlockWriteOp(0, 1), LockPrefetchOp(8), LockWaitOp(8), UnlockWriteOp(8, 0)}
			s := newSys()
			if err := s.RunPrograms([]Program{&ops}); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if got := s.Counts.Get("lock.acquired"); got != 2 {
				t.Errorf("%s: lock.acquired = %d, want 2", name, got)
			}
			continue
		}
		cases := []struct {
			kind  string
			op    Op
			block func(*Proc)
		}{
			{"lock", LockReadOp(0), func(p *Proc) { p.LockRead(0) }},
			{"unlock", UnlockWriteOp(0, 1), func(p *Proc) { p.UnlockWrite(0, 1) }},
			{"prefetch", LockPrefetchOp(0), func(p *Proc) { p.LockPrefetch(0) }},
			{"wait", LockWaitOp(0), func(p *Proc) { p.LockWait(0) }},
		}
		for _, c := range cases {
			ops := opList{ReadOp(0), c.op}
			s := newSys()
			perr := s.RunPrograms([]Program{&ops})
			berr := newSys().Run([]func(*Proc){func(p *Proc) { p.Read(0); c.block(p) }})
			if perr == nil || berr == nil || perr.Error() != berr.Error() {
				t.Errorf("%s %s: Program error %v, blocking error %v; want the same error", name, c.kind, perr, berr)
				continue
			}
			if !strings.Contains(perr.Error(), "no hardware lock") {
				t.Errorf("%s %s: error %q does not name the missing hardware lock", name, c.kind, perr)
			}
			if got := s.Counts.Get("lock.acquired"); got != 0 {
				t.Errorf("%s %s: lock.acquired = %d on a protocol without the lock", name, c.kind, got)
			}
		}
	}
}
