package sim

import (
	"cachesync/internal/cache"
	"cachesync/internal/protocol"
)

// This file implements Section E.4's second purpose of efficient busy
// wait: "relieve a waiting processor of polling the status of a lock,
// allowing it to work while waiting". LockPrefetch issues the lock
// request — the busy-wait register then waits on the processor's
// behalf, arbitrating as an independent requester — while the
// processor keeps executing its "ready section"; LockWait joins the
// result.

// prefetchArbID is the virtual bus-requester identity of processor
// p's busy-wait register.
func (s *System) prefetchArbID(p *Proc) int { return p.id + len(s.Procs) }

// startLockPrefetch begins an asynchronous lock acquisition and
// responds immediately so the processor can keep working.
func (s *System) startLockPrefetch(p *Proc, t int64, op *procOp) {
	if p.plock.armed {
		// Already prefetching (or holding) a lock: a second prefetch
		// is a no-op per the API contract.
		s.respond(p, t+int64(s.cfg.Timing.HitCycles), Result{OK: true})
		return
	}
	c := s.Caches[p.id]
	r := c.Probe(protocol.OpLock, op.addr)
	t += int64(s.cfg.Timing.HitCycles)
	if r.Hit {
		// Zero-time lock: privilege was already held.
		v, _ := c.ReadWord(op.addr)
		p.plock.armed = true
		p.plock.acquired = true
		p.plock.addr = op.addr
		p.plock.value = v
		s.recordLockAcquired(p, t)
		s.respond(p, t, Result{OK: true})
		return
	}
	ctx := &s.ctxs[s.prefetchArbID(p)]
	*ctx = opCtx{
		p: p, op: *op, protoOp: protocol.OpLock, pr: r,
		arbID: s.prefetchArbID(p), prefetch: true, start: t, active: true,
	}
	p.plock.armed = true
	p.plock.acquired = false
	p.plock.addr = op.addr
	s.busDirty = true
	s.Buses[s.busOf(s.cfg.Geometry.BlockOf(op.addr))].RequestAt(ctx.arbID, false, t)
	s.Counts.Inc("lock.prefetch")
	// The processor continues immediately: this is the ready section.
	s.respond(p, t, Result{OK: true})
}

// startLockWait joins a prefetched lock: immediate if already
// acquired, blocking until the busy-wait register wins otherwise.
func (s *System) startLockWait(p *Proc, t int64, op *procOp) {
	if !p.plock.armed {
		// No prefetch outstanding: degrade to a plain lock-read.
		p.opStart = t
		s.startMemOp(p, t, op, protocol.OpLock)
		return
	}
	if p.plock.acquired {
		v := p.plock.value
		p.resetPlock()
		s.Counts.Inc("lock.prefetch-ready")
		s.respond(p, t+int64(s.cfg.Timing.HitCycles), Result{Value: v, OK: true})
		return
	}
	// Block until the prefetch context completes.
	p.plock.waiting = true
	p.status = statusBlocked
}

// resetPlock clears a processor's prefetch state after the lock is
// consumed by LockWait.
func (p *Proc) resetPlock() {
	p.plock.armed = false
	p.plock.acquired = false
	p.plock.waiting = false
	p.plock.addr = 0
	p.plock.value = 0
}

// finishPrefetch completes a prefetched lock acquisition: the value
// is banked, the busy-wait register disarmed, and — if the processor
// is already blocked in LockWait — the processor resumes.
func (s *System) finishPrefetch(ctx *opCtx, t int64) {
	p := ctx.p
	c := s.Caches[p.id]
	v, _ := c.ReadWord(ctx.op.addr)
	p.plock.acquired = true
	p.plock.value = v
	s.Counts.Inc("lock.acquired")
	s.LockLatency.Observe(t - ctx.start)
	s.withdrawLosers(s.cfg.Geometry.BlockOf(ctx.op.addr), ctx.arbID)
	c.BWReg = cache.BusyWaitRegister{}
	if p.plock.waiting {
		val := p.plock.value
		p.resetPlock()
		s.respond(p, t, Result{Value: val, OK: true})
	}
}
