package workload

import (
	"math/rand"

	"cachesync/internal/addr"
	"cachesync/internal/interconnect"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
)

// This file holds every generator's Programs method: one resumable
// sim.Program per processor, an explicit-PC state machine over the
// generator's reference stream. Compute ops with a non-positive cycle
// count are skipped, matching Proc.Compute.

// Programs returns one Program per processor.
func (w Mixed) Programs(l Layout, procs int) []sim.Program {
	ps := make([]sim.Program, procs)
	for i := range ps {
		ps[i] = &mixedProg{
			w: w, l: l, id: i,
			rng: rand.New(rand.NewSource(w.Seed ^ int64(i*104729))),
		}
	}
	return ps
}

type mixedProg struct {
	w   Mixed
	l   Layout
	id  int
	rng *rand.Rand
	k   int
}

func (g *mixedProg) Next(p *sim.Proc, _ sim.Result) (sim.Op, bool) {
	if g.k >= g.w.Ops {
		return sim.Op{}, false
	}
	k := g.k
	g.k++
	var b addr.Block
	cl := interconnect.Data
	if g.rng.Float64() < g.w.SharedFrac {
		b = g.l.SharedBlock(g.rng.Intn(g.w.SharedBlocks))
		cl = interconnect.Sync
	} else {
		b = g.l.PrivateBlock(g.id, g.rng.Intn(g.w.PrivBlocks))
	}
	a := g.l.G.Base(b) + addr.Addr(g.rng.Intn(g.l.G.BlockWords))
	if g.rng.Float64() < g.w.WriteFrac {
		return sim.WriteOp(a, uint64(k)).WithClass(cl), true
	}
	return sim.ReadOp(a).WithClass(cl), true
}

// Programs returns one Program per processor.
func (w LockContention) Programs(l Layout, procs int) []sim.Program {
	ps := make([]sim.Program, procs)
	for i := range ps {
		ps[i] = &lockContProg{
			w: w, l: l,
			rng: rand.New(rand.NewSource(w.Seed + int64(i))),
		}
	}
	return ps
}

// lockContProg states name the op in flight.
const (
	lcStart uint8 = iota
	lcAcq         // acquire sub-machine running
	lcCS          // a critical-section write
	lcHold        // the hold-time Compute
	lcRel         // the release op
	lcThink       // the think-time Compute
)

type lockContProg struct {
	w    LockContention
	l    Layout
	rng  *rand.Rand
	lk   syncprim.LockAcquire
	pc   uint8
	k, c int
	li   int
	lock addr.Addr
}

func (g *lockContProg) Next(p *sim.Proc, last sim.Result) (sim.Op, bool) {
	switch g.pc {
	case lcAcq:
		if op, done := g.lk.Step(p, last); !done {
			return op, true
		}
		g.c = 0
		return g.emitCS(), true
	case lcCS:
		g.c++
		return g.emitCS(), true
	case lcHold:
		g.pc = lcRel
		return syncprim.StartRelease(g.w.Scheme, g.lock), true
	case lcRel:
		syncprim.FinishRelease(p)
		if g.w.ThinkCycles > 0 {
			g.pc = lcThink
			return sim.ComputeOp(g.w.ThinkCycles), true
		}
		g.k++
	case lcThink:
		g.k++
	}
	if g.k >= g.w.Iters {
		return sim.Op{}, false
	}
	g.li = g.rng.Intn(g.w.Locks)
	g.lock = g.l.LockAddr(g.li)
	g.pc = lcAcq
	return g.lk.Start(g.w.Scheme, g.lock), true
}

// emitCS issues the next critical-section write, or — when the writes
// are done — the hold Compute and then the release.
func (g *lockContProg) emitCS() sim.Op {
	if g.c < g.w.CSWrites {
		// Write the atom guarded by the lock: the rest of the lock's
		// block when it has room, otherwise a dedicated data block per
		// lock (one-word blocks).
		var a addr.Addr
		if g.l.G.BlockWords > 1 {
			a = g.lock + addr.Addr(1+g.c%(g.l.G.BlockWords-1))
		} else {
			a = g.l.G.Base(g.l.SharedBlock(512 + g.li))
		}
		g.pc = lcCS
		return sim.WriteOp(a, uint64(g.k)).WithClass(interconnect.Sync)
	}
	if g.w.HoldCycles > 0 {
		g.pc = lcHold
		return sim.ComputeOp(g.w.HoldCycles)
	}
	g.pc = lcRel
	return syncprim.StartRelease(g.w.Scheme, g.lock)
}

// Programs returns one Program per processor: proc 0 produces, proc 1
// consumes, the rest idle.
func (w ProducerConsumer) Programs(l Layout, procs int) []sim.Program {
	lock := l.LockAddr(0)
	atom := l.G.Base(l.SharedBlock(0))
	flag := l.LockAddr(1)
	ps := make([]sim.Program, procs)
	ps[0] = &producerProg{w: w, lock: lock, atom: atom, flag: flag, bw: l.G.BlockWords, i: 1}
	ps[1] = &consumerProg{w: w, lock: lock, atom: atom, flag: flag, bw: l.G.BlockWords, i: 1}
	return ps
}

const (
	ppStart uint8 = iota
	ppAcq
	ppWrite    // a write to the atom
	ppRel      // the release op
	ppFlag     // the publish write
	ppSpinRead // a read of the flag, waiting for the acknowledgement
	ppSpinPause
)

type producerProg struct {
	w                ProducerConsumer
	lock, atom, flag addr.Addr
	bw               int
	lk               syncprim.LockAcquire
	pc               uint8
	i, k             int
}

func (g *producerProg) Next(p *sim.Proc, last sim.Result) (sim.Op, bool) {
	switch g.pc {
	case ppAcq:
		if op, done := g.lk.Step(p, last); !done {
			return op, true
		}
		g.k = 0
		return g.emitWrite(), true
	case ppWrite:
		g.k++
		return g.emitWrite(), true
	case ppRel:
		syncprim.FinishRelease(p)
		g.pc = ppFlag
		return sim.WriteOp(g.flag, uint64(g.i)).WithClass(interconnect.Sync), true // publish
	case ppFlag:
		g.pc = ppSpinRead
		return sim.ReadOp(g.flag).WithClass(interconnect.Sync), true
	case ppSpinRead:
		if last.Value != 0 {
			g.pc = ppSpinPause
			return sim.ComputeOp(4), true
		}
		g.i++ // acknowledged; next item
	case ppSpinPause:
		g.pc = ppSpinRead
		return sim.ReadOp(g.flag).WithClass(interconnect.Sync), true
	}
	if g.i > g.w.Items {
		return sim.Op{}, false
	}
	g.pc = ppAcq
	return g.lk.Start(g.w.Scheme, g.lock), true
}

func (g *producerProg) emitWrite() sim.Op {
	if g.k < g.w.WritesPerItem {
		g.pc = ppWrite
		return sim.WriteOp(g.atom+addr.Addr(g.k%g.bw), uint64(g.i)).WithClass(interconnect.Sync)
	}
	g.pc = ppRel
	return syncprim.StartRelease(g.w.Scheme, g.lock)
}

const (
	cpStart    uint8 = iota
	cpSpinRead       // a read of the flag, waiting for the publish
	cpSpinPause
	cpAcq
	cpRead // a read of the atom
	cpRel  // the release op
	cpAck  // the acknowledgement write
)

type consumerProg struct {
	w                ProducerConsumer
	lock, atom, flag addr.Addr
	bw               int
	lk               syncprim.LockAcquire
	pc               uint8
	i, k             int
}

func (g *consumerProg) Next(p *sim.Proc, last sim.Result) (sim.Op, bool) {
	switch g.pc {
	case cpSpinRead:
		if last.Value != uint64(g.i) {
			g.pc = cpSpinPause
			return sim.ComputeOp(4), true
		}
		g.pc = cpAcq
		return g.lk.Start(g.w.Scheme, g.lock), true
	case cpSpinPause:
		g.pc = cpSpinRead
		return sim.ReadOp(g.flag).WithClass(interconnect.Sync), true
	case cpAcq:
		if op, done := g.lk.Step(p, last); !done {
			return op, true
		}
		g.k = 0
		return g.emitRead(), true
	case cpRead:
		g.k++
		return g.emitRead(), true
	case cpRel:
		syncprim.FinishRelease(p)
		g.pc = cpAck
		return sim.WriteOp(g.flag, 0).WithClass(interconnect.Sync), true // acknowledge
	case cpAck:
		g.i++
	}
	if g.i > g.w.Items {
		return sim.Op{}, false
	}
	g.pc = cpSpinRead
	return sim.ReadOp(g.flag).WithClass(interconnect.Sync), true
}

func (g *consumerProg) emitRead() sim.Op {
	if g.k < g.w.WritesPerItem {
		g.pc = cpRead
		return sim.ReadOp(g.atom + addr.Addr(g.k%g.bw)).WithClass(interconnect.Sync)
	}
	g.pc = cpRel
	return syncprim.StartRelease(g.w.Scheme, g.lock)
}

// Programs returns one Program per processor.
func (w ServiceQueues) Programs(l Layout, procs int) []sim.Program {
	qcap := w.QueueCap
	if qcap <= 0 || qcap > l.G.BlockWords-2 {
		qcap = max(1, l.G.BlockWords-2)
	}
	ps := make([]sim.Program, procs)
	for i := range ps {
		ps[i] = &serviceQueuesProg{
			w: w, l: l, id: i, cap: qcap, procs: procs,
			rng:    rand.New(rand.NewSource(w.Seed*31 + int64(i))),
			myLock: l.LockAddr(2 + i),
			myDesc: l.G.Base(l.SharedBlock(1 + i)),
		}
	}
	return ps
}

const (
	sqStart     uint8 = iota
	sqPostAcq         // acquiring the target queue's lock
	sqPostLen         // reading the target queue length
	sqPostSlot        // writing the posted request into its slot
	sqPostLen2        // writing the incremented length
	sqPostRel         // releasing the target queue's lock
	sqDrainAcq        // acquiring my own queue's lock
	sqDrainLen        // reading my queue length
	sqDrainSlot       // reading the drained request
	sqDrainWr         // writing the decremented length
	sqDrainRel        // releasing my queue's lock
	sqThink           // the Compute between rounds
	sqFinalAcq        // final drain: acquiring my lock
	sqFinalLen        // final drain: reading my queue length
	sqFinalWr         // final drain: writing the decremented length
	sqFinalRel        // final drain: releasing my lock
)

type serviceQueuesProg struct {
	w              ServiceQueues
	l              Layout
	id             int
	cap            int
	procs          int
	rng            *rand.Rand
	lk             syncprim.LockAcquire
	pc             uint8
	posted, d      int
	n              uint64
	lock, desc     addr.Addr
	myLock, myDesc addr.Addr
}

func (g *serviceQueuesProg) Next(p *sim.Proc, last sim.Result) (sim.Op, bool) {
	switch g.pc {
	case sqStart:
		return g.startRound()
	case sqPostAcq:
		if op, done := g.lk.Step(p, last); !done {
			return op, true
		}
		g.pc = sqPostLen
		return sim.ReadOp(g.desc).WithClass(interconnect.Sync), true // queue length
	case sqPostLen:
		if n := last.Value; int(n) < g.cap {
			g.n = n
			g.pc = sqPostSlot
			return sim.WriteOp(g.desc+addr.Addr(1+int(n)%g.cap), uint64(g.id*1000+g.posted)).WithClass(interconnect.Sync), true
		}
		// A full queue drops the request (bounded queue), so no
		// processor can wedge on a finished peer.
		g.posted++
		g.pc = sqPostRel
		return syncprim.StartRelease(g.w.Scheme, g.lock), true
	case sqPostSlot:
		g.pc = sqPostLen2
		return sim.WriteOp(g.desc, g.n+1).WithClass(interconnect.Sync), true
	case sqPostLen2:
		g.posted++
		g.pc = sqPostRel
		return syncprim.StartRelease(g.w.Scheme, g.lock), true
	case sqPostRel:
		syncprim.FinishRelease(p)
		g.pc = sqDrainAcq
		return g.lk.Start(g.w.Scheme, g.myLock), true
	case sqDrainAcq:
		if op, done := g.lk.Step(p, last); !done {
			return op, true
		}
		g.pc = sqDrainLen
		return sim.ReadOp(g.myDesc).WithClass(interconnect.Sync), true
	case sqDrainLen:
		if n := last.Value; n > 0 {
			g.n = n
			g.pc = sqDrainSlot
			return sim.ReadOp(g.myDesc + addr.Addr(1+int(n-1)%g.cap)).WithClass(interconnect.Sync), true
		}
		g.pc = sqDrainRel
		return syncprim.StartRelease(g.w.Scheme, g.myLock), true
	case sqDrainSlot:
		g.pc = sqDrainWr
		return sim.WriteOp(g.myDesc, g.n-1).WithClass(interconnect.Sync), true
	case sqDrainWr:
		g.pc = sqDrainRel
		return syncprim.StartRelease(g.w.Scheme, g.myLock), true
	case sqDrainRel:
		syncprim.FinishRelease(p)
		g.pc = sqThink
		return sim.ComputeOp(10), true
	case sqThink:
		return g.startRound()
	case sqFinalAcq:
		if op, done := g.lk.Step(p, last); !done {
			return op, true
		}
		g.pc = sqFinalLen
		return sim.ReadOp(g.myDesc).WithClass(interconnect.Sync), true
	case sqFinalLen:
		if n := last.Value; n > 0 {
			g.pc = sqFinalWr
			return sim.WriteOp(g.myDesc, n-1).WithClass(interconnect.Sync), true
		}
		g.pc = sqFinalRel
		return syncprim.StartRelease(g.w.Scheme, g.myLock), true
	case sqFinalWr:
		g.pc = sqFinalRel
		return syncprim.StartRelease(g.w.Scheme, g.myLock), true
	case sqFinalRel:
		syncprim.FinishRelease(p)
		g.d++
		return g.startFinal()
	}
	panic("workload: serviceQueuesProg in unknown state")
}

// startRound posts a request to a random other queue, or moves to the
// final drain once the quota is posted.
func (g *serviceQueuesProg) startRound() (sim.Op, bool) {
	if g.posted >= g.w.Requests {
		return g.startFinal()
	}
	target := g.rng.Intn(g.procs)
	if g.procs > 1 {
		for target == g.id {
			target = g.rng.Intn(g.procs)
		}
	}
	g.lock = g.l.LockAddr(2 + target)
	g.desc = g.l.G.Base(g.l.SharedBlock(1 + target))
	g.pc = sqPostAcq
	return g.lk.Start(g.w.Scheme, g.lock), true
}

// startFinal drains my own queue so no queue overflows block others.
func (g *serviceQueuesProg) startFinal() (sim.Op, bool) {
	if g.d >= g.w.Requests {
		return sim.Op{}, false
	}
	g.pc = sqFinalAcq
	return g.lk.Start(g.w.Scheme, g.myLock), true
}

// Programs returns one Program per processor.
func (w PrivateRuns) Programs(l Layout, procs int) []sim.Program {
	ps := make([]sim.Program, procs)
	for i := range ps {
		ps[i] = &privateRunsProg{
			w: w, l: l, id: i,
			rng: rand.New(rand.NewSource(w.Seed + int64(i)*13)),
		}
	}
	return ps
}

const (
	prStart uint8 = iota
	prRead        // the read (or ReadEx) of the visited block
	prWrite       // the write-back of the visited block
)

type privateRunsProg struct {
	w     PrivateRuns
	l     Layout
	id    int
	rng   *rand.Rand
	pc    uint8
	s, b  int
	a     addr.Addr
	write bool
}

func (g *privateRunsProg) Next(p *sim.Proc, _ sim.Result) (sim.Op, bool) {
	switch g.pc {
	case prRead:
		if g.write {
			g.pc = prWrite
			return sim.WriteOp(g.a, uint64(g.s)).WithClass(interconnect.Data), true
		}
		g.advance()
	case prWrite:
		g.advance()
	}
	if g.w.Blocks <= 0 || g.s >= g.w.Sweeps {
		return sim.Op{}, false
	}
	g.a = g.l.G.Base(g.l.PrivateBlock(g.id, g.b))
	g.write = g.rng.Float64() < g.w.WriteBack
	g.pc = prRead
	if g.w.Static && g.write {
		return sim.ReadExOp(g.a).WithClass(interconnect.Data), true
	}
	return sim.ReadOp(g.a).WithClass(interconnect.Data), true
}

func (g *privateRunsProg) advance() {
	g.b++
	if g.b >= g.w.Blocks {
		g.b = 0
		g.s++
	}
}

// Programs returns one Program per processor.
func (w StateSave) Programs(l Layout, procs int) []sim.Program {
	ps := make([]sim.Program, procs)
	for i := range ps {
		ps[i] = &stateSaveProg{w: w, l: l, id: i, vals: make([]uint64, l.G.BlockWords)}
	}
	return ps
}

const (
	ssStart   uint8 = iota
	ssWrite         // a state-block WriteBlock
	ssCompute       // running the switched-in process a little
)

type stateSaveProg struct {
	w    StateSave
	l    Layout
	id   int
	vals []uint64 // refilled per block; the engine consumes it before Next runs again
	pc   uint8
	s, b int
}

func (g *stateSaveProg) Next(_ *sim.Proc, _ sim.Result) (sim.Op, bool) {
	switch g.pc {
	case ssWrite:
		g.b++
	case ssCompute:
		g.s++
		g.b = 0
	}
	if g.s >= g.w.Switches {
		return sim.Op{}, false
	}
	if g.b < g.w.StateBlocks {
		for k := range g.vals {
			g.vals[k] = uint64(g.s*100 + g.b)
		}
		g.pc = ssWrite
		return sim.WriteBlockOp(g.l.G.Base(g.l.PrivateBlock(g.id, g.b)), g.vals).WithClass(interconnect.Data), true
	}
	g.pc = ssCompute
	return sim.ComputeOp(20), true
}

// Programs returns one Program per processor.
func (w LockedData) Programs(l Layout, procs int) []sim.Program {
	ps := make([]sim.Program, procs)
	for i := range ps {
		ps[i] = &lockedDataProg{
			w: w, l: l, id: i,
			rng: rand.New(rand.NewSource(w.Seed*17 + int64(i))),
		}
	}
	return ps
}

// lockedDataProg states name the op in flight.
const (
	ldStart uint8 = iota
	ldInstr       // an instruction fetch
	ldAcq         // acquire sub-machine running
	ldRead        // a record-word read
	ldWrite       // the paired record-word write
	ldRel         // the release op
	ldThink       // the think-time Compute
)

type lockedDataProg struct {
	w       LockedData
	l       Layout
	id      int
	rng     *rand.Rand
	lk      syncprim.LockAcquire
	pc      uint8
	k, j, c int
	v       uint64
	lock    addr.Addr
	rec     addr.Addr
}

func (g *lockedDataProg) Next(p *sim.Proc, last sim.Result) (sim.Op, bool) {
	switch g.pc {
	case ldInstr:
		g.j++
		if g.j < g.w.Instrs {
			return sim.InstrFetchOp(g.ibase() + addr.Addr(g.j)), true
		}
		return g.startAcquire(), true
	case ldAcq:
		if op, done := g.lk.Step(p, last); !done {
			return op, true
		}
		g.c = 0
		return g.emitRecord(), true
	case ldRead:
		g.v = last.Value
		g.pc = ldWrite
		return sim.WriteOp(g.rec+addr.Addr(g.c), g.v+1).WithClass(interconnect.Data), true
	case ldWrite:
		g.c++
		return g.emitRecord(), true
	case ldRel:
		syncprim.FinishRelease(p)
		if g.w.Think > 0 {
			g.pc = ldThink
			return sim.ComputeOp(g.w.Think), true
		}
		g.k++
	case ldThink:
		g.k++
	}
	if g.k >= g.w.Iters {
		return sim.Op{}, false
	}
	if g.w.Instrs > 0 {
		g.pc = ldInstr
		g.j = 0
		return sim.InstrFetchOp(g.ibase()), true
	}
	return g.startAcquire(), true
}

func (g *lockedDataProg) ibase() addr.Addr {
	return g.l.G.Base(g.l.InstrBlock(g.id, 0))
}

// startAcquire picks this iteration's lock and its guarded lower-tier
// record, then starts the acquire sub-machine.
func (g *lockedDataProg) startAcquire() sim.Op {
	li := g.rng.Intn(max(1, g.w.Locks))
	g.lock = g.l.LockAddr(li)
	g.rec = g.l.G.Base(g.l.SharedBlock(2048 + li*8))
	g.pc = ldAcq
	return g.lk.Start(g.w.Scheme, g.lock)
}

// emitRecord issues the next record-word read, or the release when the
// record is done.
func (g *lockedDataProg) emitRecord() sim.Op {
	if g.c < g.w.Records {
		g.pc = ldRead
		return sim.ReadOp(g.rec + addr.Addr(g.c)).WithClass(interconnect.Data)
	}
	g.pc = ldRel
	return syncprim.StartRelease(g.w.Scheme, g.lock)
}
