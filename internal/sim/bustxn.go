package sim

import (
	"cachesync/internal/addr"
	"cachesync/internal/bus"
	"cachesync/internal/cache"
	"cachesync/internal/memory"
	"cachesync/internal/protocol"
)

// ioCounterName returns the precomputed "io.<cmd>" statistic key for
// the three commands an I/O transfer can issue.
func ioCounterName(c bus.Cmd) string {
	switch c {
	case bus.IOWrite:
		return "io.iowrite"
	case bus.ReadX:
		return "io.readx"
	case bus.IORead:
		return "io.ioread"
	}
	return "io." + c.String()
}

// serveBus is called when ctx's processor wins bus arbitration. The
// access is re-run against the (possibly snooped-upon) line state; it
// may complete locally, run a transaction, or park in busy wait.
func (s *System) serveBus(ctx *opCtx) {
	ctx.active = false
	switch ctx.op.kind {
	case opIO:
		s.serveIO(ctx)
		return
	case opRMWMem:
		s.serveRMWMemory(ctx)
		return
	case opTryWrite:
		if s.Caches[ctx.p.id].State(s.cfg.Geometry.BlockOf(ctx.op.addr)) == protocol.Invalid {
			// Stolen while queued: abort (Feature 6, method 3).
			ctx.p.Counts.Inc("rmw.abort")
			s.respond(ctx.p, s.clock, Result{OK: false})
			return
		}
	}
	s.advance(ctx)
}

// advance re-probes and either finishes locally, or runs the next bus
// transaction of the operation.
func (s *System) advance(ctx *opCtx) {
	if ctx.op.kind == opRMW {
		s.advanceRMW(ctx)
		return
	}
	c := s.Caches[ctx.p.id]
	r := c.Reprobe(ctx.protoOp, ctx.op.addr)
	if r.Hit {
		s.finishOp(ctx, s.clock+int64(s.cfg.Timing.HitCycles))
		return
	}
	ctx.pr = r
	s.serveTxn(ctx)
}

// advanceRMW is the grant-time entry for an atomic read-modify-write.
// Atomicity: anything captured when the request was queued may be
// stale — another processor's write, update broadcast, or
// invalidation can land in between. The state and old value are
// re-derived now; from here to the transaction nothing intervenes.
func (s *System) advanceRMW(ctx *opCtx) {
	c := s.Caches[ctx.p.id]
	b := s.cfg.Geometry.BlockOf(ctx.op.addr)
	if c.State(b) != protocol.Invalid {
		// A (possibly revived) local copy holds the current value.
		ctx.rmwOld, _ = c.ReadWord(ctx.op.addr)
		ctx.rmwHaveOld = true
		ctx.protoOp = protocol.OpWrite // the fetch phase is unnecessary now
		r := c.Reprobe(protocol.OpWrite, ctx.op.addr)
		if r.Hit {
			// Write privilege in hand: entirely local and atomic.
			c.WriteWord(ctx.op.addr, ctx.op.f(ctx.rmwOld))
			ctx.p.Counts.Inc("rmw.done")
			s.respond(ctx.p, s.clock+int64(s.cfg.Timing.HitCycles), Result{Value: ctx.rmwOld, OK: true})
			return
		}
		ctx.pr = r
		s.serveTxn(ctx)
		return
	}
	ctx.rmwHaveOld = false
	r := c.Reprobe(protocol.OpWrite, ctx.op.addr)
	if r.Cmd == bus.WriteWord {
		// A write-through path cannot return the old value: fetch a
		// readable copy first (the bus is held between the phases).
		ctx.protoOp = protocol.OpRead
		r = c.Reprobe(protocol.OpRead, ctx.op.addr)
	} else {
		ctx.protoOp = protocol.OpWrite
	}
	ctx.pr = r
	s.serveTxn(ctx)
}

// buildTxn materializes the pending bus command of ctx in the pooled
// transaction record. The record is live only until the transaction's
// completion is applied; every consumer that keeps block data copies
// it out.
func (s *System) buildTxn(ctx *opCtx) *bus.Transaction {
	b := s.cfg.Geometry.BlockOf(ctx.op.addr)
	t := &s.txnScratch
	t.Reset()
	t.Cmd = ctx.pr.Cmd
	t.Block = b
	t.Addr = ctx.op.addr
	t.Requester = ctx.p.id
	t.LockIntent = ctx.pr.LockIntent
	t.AfterWait = ctx.afterWait
	t.MemUpdate = ctx.pr.MemUpdate
	if ctx.protoOp == protocol.OpUnlock && (t.Cmd == bus.ReadX || t.Cmd == bus.Upgrade) {
		t.UnlockIntent = true
	}
	switch t.Cmd {
	case bus.WriteWord, bus.UpdateWord:
		if ctx.op.kind == opRMW {
			t.WordData = ctx.op.f(ctx.rmwOld)
		} else {
			t.WordData = ctx.op.value
		}
	}
	return t
}

// needsFrame reports whether the transaction will install a line.
func (s *System) needsFrame(cmd bus.Cmd) bool {
	switch cmd {
	case bus.Read, bus.ReadX, bus.WriteNoFetch:
		return true
	case bus.WriteWord:
		return s.feats.WriteAllocates
	}
	return false
}

// broadcast delivers t to every cache except the requester, bumping
// the bus's transaction counter. It is bus.Broadcast specialized to
// the simulator's topology — every cache snoops every bus, and cache
// IDs equal their slice index — so the fan-out runs over the concrete
// slice with no per-snooper interface dispatch. Snoopers attached
// after the caches (bus monitors, test probes) still get every
// transaction, after all caches, exactly as under bus.Broadcast.
func (s *System) broadcast(bi int, t *bus.Transaction) {
	b := s.Buses[bi]
	b.CountTxn(t.Cmd)
	for i, c := range s.Caches {
		if i == t.Requester {
			continue
		}
		c.Snoop(t)
	}
	for _, sn := range b.SnoopersFrom(len(s.Caches)) {
		if sn.ID() == t.Requester {
			continue
		}
		sn.Snoop(t)
	}
}

// evict performs a victim writeback (and lock purge) for cache c,
// advancing the bus clock.
func (s *System) evict(c *cache.Cache, v cache.Victim) {
	if v.Evict.Writeback {
		words := c.EvictWords(v.Block)
		t := &s.txnScratch
		t.Reset()
		t.Cmd = bus.Flush
		t.Block = v.Block
		t.Addr = s.cfg.Geometry.Base(v.Block)
		t.Requester = c.ID()
		t.BlockData = v.Data
		bi := s.busOf(v.Block)
		if s.clock < s.busFree[bi] {
			s.clock = s.busFree[bi]
		}
		s.broadcast(bi, t)
		s.Mem.Respond(t)
		cost := s.cfg.Timing.TxnCost(t, words, false)
		start := s.clock
		s.busFree[bi] = s.clock + cost
		s.clock = s.busFree[bi]
		s.countBus(cost, int64(words))
		s.Counts.Inc("evict.flush")
		s.logTxn(bi, t, start, cost)
	}
	if v.Evict.LockPurge {
		// Section E.3: the lock bit is written to memory so the lock
		// survives the purge.
		s.Mem.SetLockTag(v.Block, memory.LockTag{Locked: true, Owner: c.ID(), Waiter: v.Evict.Waiter})
		s.Counts.Inc("evict.lockpurge")
	}
	if s.feats.PartialBroadcast {
		s.Mem.Dir.Remove(v.Block, c.ID())
	}
	c.Drop(v.Block)
}

// serveTxn runs one bus transaction for ctx and applies its
// completion. The clock must equal busFree on entry.
func (s *System) serveTxn(ctx *opCtx) {
	c := s.Caches[ctx.p.id]
	b := s.cfg.Geometry.BlockOf(ctx.op.addr)

	if s.needsFrame(ctx.pr.Cmd) {
		if v := c.PrepareFill(b); v.Needed {
			s.evict(c, v)
		}
	}

	t := s.buildTxn(ctx)
	bi := s.busOf(b)
	if s.clock < s.busFree[bi] {
		s.clock = s.busFree[bi]
	}
	var dirCost int64
	if s.feats.PartialBroadcast {
		// Directory system (Censier-Feautrier): memory looks up the
		// presence directory and sends point-to-point messages to the
		// recorded holders — serialized, unlike a broadcast snoop.
		s.dirTargets = s.Mem.Dir.Members(s.dirTargets[:0], b, ctx.p.id)
		targets := s.dirTargets
		for _, id := range targets {
			s.Caches[id].Snoop(t)
		}
		s.Buses[bi].CountTxn(t.Cmd)
		dirCost = int64(s.cfg.Timing.DirLookupCycles + len(targets)*s.cfg.Timing.DirMsgCycles)
		s.Counts.Add("dir.msgs", int64(len(targets)))
	} else {
		s.broadcast(bi, t)
	}
	memSupplied := s.Mem.Respond(t)

	words := 0
	switch t.Cmd {
	case bus.Read, bus.ReadX, bus.IORead:
		switch {
		case t.Lines.Locked:
			words = 0
		case memSupplied:
			words = s.cfg.Geometry.BlockWords
			if s.cfg.Cache.UnitMode {
				words = s.cfg.Geometry.TransferWords
			}
		case t.SupplyWordCount > 0:
			words = t.SupplyWordCount
		default:
			words = s.cfg.Geometry.BlockWords
		}
	case bus.WriteWord, bus.UpdateWord:
		words = 1 // the written word crosses the bus
	}
	cost := s.cfg.Timing.TxnCost(t, words, memSupplied) + dirCost
	start := s.clock
	s.busFree[bi] = s.clock + cost
	s.clock = s.busFree[bi]
	s.countBus(cost, int64(words))
	s.logTxn(bi, t, start, cost)

	if s.feats.PartialBroadcast && !t.Lines.Locked {
		switch t.Cmd {
		case bus.Read:
			s.Mem.Dir.Add(b, ctx.p.id)
		case bus.ReadX, bus.Upgrade, bus.WriteNoFetch:
			s.Mem.Dir.SetSole(b, ctx.p.id)
		}
	}

	st := c.State(b)
	cres := s.complete(st, ctx.protoOp, t)

	if cres.BusyWait {
		if ctx.op.kind == opTryWrite {
			ctx.p.Counts.Inc("rmw.abort")
			s.respond(ctx.p, s.clock, Result{OK: false})
			return
		}
		s.park(ctx, b)
		s.notifyTxn()
		return
	}
	s.applyCompletion(ctx, t, cres)
	s.notifyTxn()
}

// notifyTxn fires the OnTxn hook, if any.
func (s *System) notifyTxn() {
	if s.OnTxn != nil {
		s.OnTxn()
	}
}

// park puts the processor into busy wait (Figure 7): the busy-wait
// register is armed with the block address and the processor makes no
// further bus attempts until the unlock broadcast.
func (s *System) park(ctx *opCtx, b addr.Block) {
	p := ctx.p
	if !ctx.prefetch {
		p.status = statusWaiting
	}
	ctx.active = true
	s.Caches[p.id].BWReg = cache.BusyWaitRegister{Armed: true, Block: b}
	s.addWaiter(b, ctx.arbID)
	s.Counts.Inc("lock.denied")
	p.Counts.Inc("proc.busywait")
}

// addWaiter appends id to block b's waiter list, reusing a retired
// slice from the pool when the list is fresh.
func (s *System) addWaiter(b addr.Block, id int) {
	w, ok := s.waiters[b]
	if !ok && len(s.waiterPool) > 0 {
		n := len(s.waiterPool) - 1
		w = s.waiterPool[n]
		s.waiterPool = s.waiterPool[:n]
	}
	s.waiters[b] = append(w, id)
}

// wakeWaiters reacts to an Unlock broadcast on block b (Figure 9):
// every parked waiter joins the next arbitration at high priority.
func (s *System) wakeWaiters(b addr.Block) {
	ids := s.waiters[b]
	if len(ids) == 0 {
		return
	}
	delete(s.waiters, b)
	for _, id := range ids {
		ctx := &s.ctxs[id]
		if !ctx.active {
			continue
		}
		ctx.afterWait = true
		if !ctx.prefetch {
			ctx.p.status = statusBlocked
		}
		// The reserved high-priority bit (Section E.4), unless ablated.
		s.Buses[s.busOf(b)].RequestAt(id, !s.cfg.NoWaiterPriority, s.clock)
		s.Counts.Inc("lock.rearb")
	}
	s.waiterPool = append(s.waiterPool, ids[:0])
}

// withdrawLosers implements the losing half of Figure 9: once a
// re-arbitrated waiter has locked block b, the other waiters withdraw
// their bus requests — no retry ever reaches the bus — and go back to
// waiting on the (new) holder's unlock broadcast.
func (s *System) withdrawLosers(b addr.Block, winner int) {
	for id := range s.ctxs {
		ctx := &s.ctxs[id]
		if id == winner || !ctx.active || !ctx.afterWait {
			continue
		}
		if !ctx.prefetch && ctx.p.status != statusBlocked {
			continue
		}
		if s.cfg.Geometry.BlockOf(ctx.op.addr) != b {
			continue
		}
		s.Buses[s.busOf(b)].Withdraw(id)
		ctx.afterWait = false
		if !ctx.prefetch {
			ctx.p.status = statusWaiting
		}
		s.addWaiter(b, id)
		s.Counts.Inc("lock.backoff")
	}
}

// applyCompletion installs the post-transaction state and data, then
// finishes, continues, or re-queues the operation.
func (s *System) applyCompletion(ctx *opCtx, t *bus.Transaction, cres protocol.CompleteResult) {
	c := s.Caches[ctx.p.id]
	b := t.Block
	newState := cres.NewState

	// Lock-purge reclaim (Section E.3): the owner re-fetched a block
	// whose lock bit lives in memory; restore the lock state (with the
	// waiter bit) and clear the tag. Every fetch by the owner reclaims,
	// not just an unlock-intent one: if the tag stayed behind while the
	// owner held the block in an ordinary write state, a later
	// requester would be denied by memory only after the snooping
	// caches had already reacted — the owner's copy would hand off its
	// dirty data to a requester that never installs it.
	switch t.Cmd {
	case bus.Read, bus.ReadX, bus.Upgrade, bus.WriteNoFetch:
		if tag := s.Mem.GetLockTag(b); tag.Locked && tag.Owner == ctx.p.id {
			if lr, ok := s.proto.(protocol.LockReclaimer); ok {
				newState = lr.ReclaimedLockState(tag.Waiter)
			}
			s.Mem.SetLockTag(b, memory.LockTag{})
			s.Counts.Inc("lock.reclaim")
		}
	}

	// Install or update the line.
	switch t.Cmd {
	case bus.Read, bus.ReadX:
		if newState != protocol.Invalid {
			c.Install(b, t.BlockData, newState)
			if t.Lines.Dirty && t.DirtyUnits != nil {
				c.SetUnitDirty(b, t.DirtyUnits)
			}
		}
	case bus.WriteNoFetch:
		c.Install(b, nil, newState)
	case bus.WriteWord:
		if newState != protocol.Invalid {
			if c.State(b) == protocol.Invalid {
				// BlockView: Install copies, so the no-copy accessor is safe.
				c.Install(b, s.Mem.BlockView(b), newState)
			} else {
				c.SetState(b, newState)
			}
		}
	default: // Upgrade, UpdateWord, Unlock: the line is present
		if c.State(b) != protocol.Invalid || newState != protocol.Invalid {
			c.SetState(b, newState)
		}
	}

	// Frank's memory source bit (Feature 2).
	if s.feats.MemorySourceBit {
		if t.Flushed || t.Cmd == bus.WriteWord {
			s.Mem.SetSource(b, true)
		}
		if s.isDirty(newState) {
			s.Mem.SetSource(b, false)
		}
	}

	// Processor-side data effect, applied only when the operation is
	// complete: until the final phase serializes on the bus, the new
	// value must not be observable (e.g. between Goodman's fetch and
	// write-through phases).
	if ctx.op.kind != opRMW && cres.Done && ctx.protoOp.IsWrite() && c.State(b) != protocol.Invalid {
		switch ctx.protoOp {
		case protocol.OpWriteBlock:
			base := s.cfg.Geometry.Base(b)
			for i, v := range ctx.op.vals {
				c.WriteWord(base+addr.Addr(i), v)
			}
		default:
			c.WriteWord(ctx.op.addr, ctx.op.value)
		}
	}

	// An unlock broadcast wakes the busy-wait registers.
	if t.Cmd == bus.Unlock {
		s.Counts.Inc("lock.broadcast")
		s.wakeWaiters(b)
	}

	// RMW phase sequencing (engine-driven, bus held between phases).
	if ctx.op.kind == opRMW {
		s.continueRMW(ctx, cres)
		return
	}

	if !cres.Done {
		// Protocol multi-phase operation (e.g. Goodman's
		// fetch-then-write-through, Dragon's fetch-then-update): the
		// cache completes the pending processor access before
		// yielding the block, holding the bus between the phases —
		// releasing it would let spinning writers invalidate the
		// freshly fetched copy forever (write-miss livelock).
		r := c.Reprobe(ctx.protoOp, ctx.op.addr)
		if r.Hit {
			s.finishOp(ctx, s.clock+int64(s.cfg.Timing.HitCycles))
			return
		}
		ctx.pr = r
		s.serveTxn(ctx)
		return
	}
	s.finishOp(ctx, s.clock)
}

// continueRMW drives the atomic read-modify-write through its
// phases without releasing the bus (Feature 6, method 2 / the
// Papamarcos-Patel variant).
func (s *System) continueRMW(ctx *opCtx, cres protocol.CompleteResult) {
	c := s.Caches[ctx.p.id]
	// After any fetch-bearing phase, the old value is available.
	if !ctx.rmwHaveOld && c.State(s.cfg.Geometry.BlockOf(ctx.op.addr)) != protocol.Invalid {
		ctx.rmwOld, _ = c.ReadWord(ctx.op.addr)
		ctx.rmwHaveOld = true
	}
	if ctx.protoOp == protocol.OpRead {
		// Phase 0 (write-through protocols): the fetch completed;
		// switch to the write phase.
		ctx.protoOp = protocol.OpWrite
	} else if cres.Done {
		// Final phase done: commit the new value locally (memory and
		// other caches have already seen it if the phase was a
		// write-through).
		if c.State(s.cfg.Geometry.BlockOf(ctx.op.addr)) != protocol.Invalid {
			c.Reprobe(protocol.OpWrite, ctx.op.addr) // dirty-state transition
			c.WriteWord(ctx.op.addr, ctx.op.f(ctx.rmwOld))
		}
		ctx.p.Counts.Inc("rmw.done")
		s.respond(ctx.p, s.clock+int64(s.cfg.Timing.HitCycles), Result{Value: ctx.rmwOld, OK: true})
		return
	}
	// Next phase, bus still held: no other requester can slip between
	// the phases, which is what makes the instruction atomic.
	r := c.Reprobe(ctx.protoOp, ctx.op.addr)
	if r.Hit {
		c.WriteWord(ctx.op.addr, ctx.op.f(ctx.rmwOld))
		ctx.p.Counts.Inc("rmw.done")
		s.respond(ctx.p, s.clock+int64(s.cfg.Timing.HitCycles), Result{Value: ctx.rmwOld, OK: true})
		return
	}
	ctx.pr = r
	s.serveTxn(ctx)
}

// finishOp completes a bus-served operation at time t and responds to
// the processor.
func (s *System) finishOp(ctx *opCtx, t int64) {
	c := s.Caches[ctx.p.id]
	if ctx.prefetch {
		s.finishPrefetch(ctx, t)
		return
	}
	// Processor idle time spent on this bus-served operation — the
	// "concomitant processor idle time" of Section D.1.
	if stall := t - ctx.p.opStart; stall > 0 {
		ctx.p.Counts.Add("proc.stall-cycles", stall)
	}
	var res Result
	res.OK = true
	switch ctx.op.kind {
	case opBlockWrite:
		if !s.feats.WriteNoFetch {
			// The first word's write completed; handle the rest.
			s.writeRemainder(ctx.p, t, &ctx.op)
			return
		}
	case opTryWrite:
		res.OK = true
	}
	switch ctx.protoOp {
	case protocol.OpRead, protocol.OpReadEx:
		res.Value, _ = c.ReadWord(ctx.op.addr)
	case protocol.OpLock:
		res.Value, _ = c.ReadWord(ctx.op.addr)
		s.recordLockAcquired(ctx.p, t)
		// Figure 9: the other waiters see the lock taken and withdraw.
		s.withdrawLosers(s.cfg.Geometry.BlockOf(ctx.op.addr), ctx.p.id)
	case protocol.OpUnlock:
		c.WriteWord(ctx.op.addr, ctx.op.value)
		s.Counts.Inc("lock.unlock-bus")
	case protocol.OpWrite:
		// A write whose final phase completed as a local hit (e.g.
		// Dragon's fetch-then-silent-write): commit the store.
		c.WriteWord(ctx.op.addr, ctx.op.value)
	case protocol.OpWriteBlock:
		base := s.cfg.Geometry.Base(s.cfg.Geometry.BlockOf(ctx.op.addr))
		for i, v := range ctx.op.vals {
			c.WriteWord(base+addr.Addr(i), v)
		}
	}
	if ctx.afterWait {
		// The operation a busy wait was armed for has completed.
		s.Caches[ctx.p.id].BWReg = cache.BusyWaitRegister{}
	}
	s.respond(ctx.p, t, res)
}

// serveIO runs an I/O-processor transfer (Section E.2). The I/O
// processor is not a cache: every cache snoops (Requester −1).
func (s *System) serveIO(ctx *opCtx) {
	g := s.cfg.Geometry
	b := g.BlockOf(ctx.op.addr)
	t := &s.txnScratch
	t.Reset()
	t.Block = b
	t.Addr = ctx.op.addr
	t.Requester = -1
	switch ctx.op.io {
	case IOInput:
		t.Cmd = bus.IOWrite
		data := make([]uint64, g.BlockWords)
		copy(data, ctx.op.vals)
		t.BlockData = data
	case IOPageOut:
		t.Cmd = bus.ReadX
	case IOOutput:
		t.Cmd = bus.IORead
	}
	bi := s.busOf(b)
	if s.clock < s.busFree[bi] {
		s.clock = s.busFree[bi]
	}
	s.broadcast(bi, t)
	memSupplied := s.Mem.Respond(t)
	words := g.BlockWords
	if t.Lines.Locked {
		words = 0
		s.Counts.Inc("io.denied")
	}
	cost := s.cfg.Timing.TxnCost(t, words, memSupplied)
	start := s.clock
	s.busFree[bi] = s.clock + cost
	s.clock = s.busFree[bi]
	s.countBus(cost, int64(words))
	s.Counts.Inc(ioCounterName(t.Cmd))
	s.logTxn(bi, t, start, cost)
	s.respond(ctx.p, s.clock, Result{OK: !t.Lines.Locked})
	s.notifyTxn()
}

// serveRMWMemory runs the memory-held atomic read-modify-write
// (Feature 6, method 1): a read that collects the latest version —
// flushing any dirty cached copy — followed by the word write, with
// the bus and memory module held throughout.
func (s *System) serveRMWMemory(ctx *opCtx) {
	g := s.cfg.Geometry
	b := g.BlockOf(ctx.op.addr)

	bi := s.busOf(b)
	if s.clock < s.busFree[bi] {
		s.clock = s.busFree[bi]
	}
	// Both pooled records are live at once here: the read transaction
	// must survive until its TxnCost below, after the write broadcast.
	read := &s.txnScratch
	read.Reset()
	read.Cmd = bus.Read
	read.Block = b
	read.Addr = ctx.op.addr
	read.Requester = -1
	s.broadcast(bi, read)
	memSupplied := s.Mem.Respond(read)
	if !memSupplied && read.BlockData != nil {
		// A source cache supplied; memory takes the flush.
		s.Mem.WriteBlock(b, read.BlockData)
	}
	old := s.Mem.ReadWord(ctx.op.addr)

	write := &s.txnScratch2
	write.Reset()
	write.Cmd = bus.WriteWord
	write.Block = b
	write.Addr = ctx.op.addr
	write.Requester = -1
	write.WordData = ctx.op.f(old)
	s.broadcast(bi, write)
	s.Mem.Respond(write)

	cost := s.cfg.Timing.TxnCost(read, g.BlockWords, memSupplied) +
		s.cfg.Timing.TxnCost(write, 0, false)
	s.busFree[bi] = s.clock + cost
	s.clock = s.busFree[bi]
	s.Counts.Add("bus.cycles", cost)
	s.Counts.Inc("rmw.memory")
	ctx.p.Counts.Inc("rmw.done")
	s.respond(ctx.p, s.clock, Result{Value: old, OK: true})
	s.notifyTxn()
}
