// Package schedqueue implements Section B.2's software queuing: when
// the hardware does not itself implement queuing, sleep wait must be
// built in software, and "a queue-manager procedure will busy wait
// for access to software-implemented queues, and when it gains
// access to a queue, will insert or delete a process, as
// appropriate".
//
// A Queue is a bounded ring of process identifiers living in
// simulated shared memory: a lock block (the hard atom), a descriptor
// block (count/head/tail — "if semaphores are used, they will be part
// of the queue descriptor"), and slot blocks. Queue operations
// therefore cost the several block fetches per queue the paper
// estimates ("say three or four"), which is why efficient busy-wait
// locking matters most here: the global ready queue is exactly the
// high-contention atom Section E.4 worries about.
//
// Scheduler builds sleep wait on top: worker processors pop a process
// from the shared ready queue, run it for a quantum, save its state
// with whole-block writes (Feature 9's motivating case), and requeue
// it.
package schedqueue

import (
	"fmt"

	"cachesync/internal/addr"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
)

// Descriptor word offsets within the descriptor block.
const (
	descCount = 0
	descHead  = 1
	descTail  = 2
)

// Queue is a busy-wait-protected, bounded process queue in simulated
// shared memory.
type Queue struct {
	g      addr.Geometry
	lock   addr.Addr
	desc   addr.Addr
	slot0  addr.Addr
	cap    int
	scheme syncprim.Scheme
}

// New lays out a queue: lockBlock holds the lock (a whole block, per
// the paper's block-per-atom rule), descBlock the descriptor, and the
// slots start in the block after descBlock. capSlots must be positive.
func New(g addr.Geometry, lockBlock, descBlock addr.Block, capSlots int, scheme syncprim.Scheme) *Queue {
	if capSlots <= 0 {
		panic(fmt.Sprintf("schedqueue: capacity %d", capSlots))
	}
	if lockBlock == descBlock {
		panic("schedqueue: lock and descriptor must live on different blocks")
	}
	if g.BlockWords < 3 {
		panic("schedqueue: descriptor needs a block of at least 3 words")
	}
	return &Queue{
		g:      g,
		lock:   g.Base(lockBlock),
		desc:   g.Base(descBlock),
		slot0:  g.Base(descBlock + 1),
		cap:    capSlots,
		scheme: scheme,
	}
}

// slotAddr returns the address of ring slot i.
func (q *Queue) slotAddr(i uint64) addr.Addr {
	return q.slot0 + addr.Addr(i%uint64(q.cap))
}

// Enqueue appends v; it reports false when the queue is full. The
// queue lock is held for the duration (the insert of Section B.2).
func (q *Queue) Enqueue(p *sim.Proc, v uint64) bool {
	syncprim.Acquire(p, q.scheme, q.lock)
	defer syncprim.Release(p, q.scheme, q.lock)
	n := p.Read(q.desc + descCount)
	if n >= uint64(q.cap) {
		p.Counts.Inc("queue.full")
		return false
	}
	tail := p.Read(q.desc + descTail)
	p.Write(q.slotAddr(tail), v)
	p.Write(q.desc+descTail, (tail+1)%uint64(q.cap))
	p.Write(q.desc+descCount, n+1)
	p.Counts.Inc("queue.enqueue")
	return true
}

// Dequeue removes the oldest entry; ok is false when the queue is
// empty.
func (q *Queue) Dequeue(p *sim.Proc) (v uint64, ok bool) {
	syncprim.Acquire(p, q.scheme, q.lock)
	defer syncprim.Release(p, q.scheme, q.lock)
	n := p.Read(q.desc + descCount)
	if n == 0 {
		p.Counts.Inc("queue.empty")
		return 0, false
	}
	head := p.Read(q.desc + descHead)
	v = p.Read(q.slotAddr(head))
	p.Write(q.desc+descHead, (head+1)%uint64(q.cap))
	p.Write(q.desc+descCount, n-1)
	p.Counts.Inc("queue.dequeue")
	return v, true
}

// Len returns the current queue length (a racy snapshot; it takes the
// lock to read consistently).
func (q *Queue) Len(p *sim.Proc) uint64 {
	syncprim.Acquire(p, q.scheme, q.lock)
	defer syncprim.Release(p, q.scheme, q.lock)
	return p.Read(q.desc + descCount)
}

// Scheduler is software sleep wait (Section B.2): lightweight
// processes move between a shared ready queue and the worker
// processors that run them.
type Scheduler struct {
	Ready *Queue

	g           addr.Geometry
	stateBase   addr.Block // process state blocks start here
	stateBlocks int        // blocks of state per process
	quantum     int64
}

// SchedulerConfig sizes a Scheduler.
type SchedulerConfig struct {
	Geometry    addr.Geometry
	LockBlock   addr.Block // ready-queue lock
	DescBlock   addr.Block // ready-queue descriptor (slots follow)
	Capacity    int        // ready-queue capacity (>= number of processes)
	StateBase   addr.Block // first process-state block
	StateBlocks int        // state blocks per process (default 2)
	Quantum     int64      // cycles a process runs per dispatch (default 40)
	Scheme      syncprim.Scheme
}

// NewScheduler builds the scheduler and its ready queue.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.StateBlocks == 0 {
		cfg.StateBlocks = 2
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 40
	}
	return &Scheduler{
		Ready:       New(cfg.Geometry, cfg.LockBlock, cfg.DescBlock, cfg.Capacity, cfg.Scheme),
		g:           cfg.Geometry,
		stateBase:   cfg.StateBase,
		stateBlocks: cfg.StateBlocks,
		quantum:     cfg.Quantum,
	}
}

// Seed enqueues process identifiers 1..n (run once, from one worker,
// before scheduling starts).
func (s *Scheduler) Seed(p *sim.Proc, n int) {
	for pid := 1; pid <= n; pid++ {
		if !s.Ready.Enqueue(p, uint64(pid)) {
			panic("schedqueue: ready queue too small for seed")
		}
	}
}

// stateBlock returns process pid's i-th state block.
func (s *Scheduler) stateBlock(pid uint64, i int) addr.Block {
	return s.stateBase + addr.Block(int(pid-1)*s.stateBlocks+i)
}

// Dispatch pops one process, restores its state, runs it for a
// quantum, saves its state with whole-block writes (Feature 9), and
// requeues it. It reports whether a process was available.
func (s *Scheduler) Dispatch(p *sim.Proc) bool {
	pid, ok := s.Ready.Dequeue(p)
	if !ok {
		return false
	}
	// Restore: read the process state.
	for i := 0; i < s.stateBlocks; i++ {
		p.Read(s.g.Base(s.stateBlock(pid, i)))
	}
	// Run the process.
	p.Compute(s.quantum)
	// Save state at the switch: whole blocks are overwritten, the
	// write-without-fetch case the paper highlights for Aquarius.
	vals := make([]uint64, s.g.BlockWords)
	for i := 0; i < s.stateBlocks; i++ {
		for k := range vals {
			vals[k] = pid<<16 | uint64(i)
		}
		p.WriteBlock(s.g.Base(s.stateBlock(pid, i)), vals)
	}
	if !s.Ready.Enqueue(p, pid) {
		panic("schedqueue: requeue failed (capacity must cover all processes)")
	}
	p.Counts.Inc("sched.dispatch")
	return true
}

// Worker returns a workload that dispatches processes `dispatches`
// times, idling briefly when the ready queue is momentarily empty.
func (s *Scheduler) Worker(dispatches int) func(*sim.Proc) {
	return func(p *sim.Proc) {
		done := 0
		for done < dispatches {
			if s.Dispatch(p) {
				done++
			} else {
				p.Compute(10)
			}
		}
	}
}
