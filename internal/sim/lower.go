package sim

import (
	"fmt"

	"cachesync/internal/addr"
	"cachesync/internal/interconnect"
	"cachesync/internal/protocol"
)

// LowerRef is one reference the engine routes past the coherence bus
// to the machine's lower tier (Figure 11: instructions and plain data
// go to the crossbar/banks, not the synchronization bus).
type LowerRef struct {
	Proc  int
	Class interconnect.Class
	Op    protocol.Op // OpRead, OpReadEx, OpWrite, or OpWriteBlock
	Addr  addr.Addr
	Value uint64   // OpWrite payload
	Vals  []uint64 // OpWriteBlock payload; valid only during the call
	Now   int64    // issue time on the processor's clock
	Start int64    // first-issue time of the whole operation (latency stats)
}

// LowerTier serves the references the engine classifies off the
// synchronization tier. LowerAccess is called inline from the event
// loop in deterministic event order; it returns the completion time
// (the engine clamps it to at least the issue time) and, for reads,
// the value. Errors abort the run.
type LowerTier interface {
	LowerAccess(ref LowerRef) (done int64, value uint64, err error)
}

// AttachLower connects a lower tier, turning the machine into a
// two-tier system: Sync-class references keep using the coherent
// cache/bus path and Instr and Data classes route to lt. With strict,
// unclassified references become errors (a tiered machine cannot
// guess a reference's tier); without it they stay on the coherent
// path, for machines whose workloads split traffic by hand. Call
// before the system starts.
func (s *System) AttachLower(lt LowerTier, strict bool) {
	if s.started {
		panic("sim: AttachLower after the system started")
	}
	s.lower = lt
	s.strictClass = strict
}

// countRoute charges one routed reference through a cached handle.
func (s *System) countRoute(h **int64, name string) {
	if *h == nil {
		*h = s.Counts.Handle(name)
	}
	**h++
}

// routeLower dispatches op by class when a lower tier is attached.
// Sync-class references fall through (handled=false) to the normal
// coherent path after being counted; Instr/Data complete against the
// lower tier here. Unclassified references are rejected — silently
// routing them would let a mis-tagged workload produce plausible but
// wrong traffic numbers.
func (s *System) routeLower(p *Proc, t int64, op *procOp) (handled bool, err error) {
	switch op.class {
	case interconnect.Sync:
		s.countRoute(&s.routeSyncH, "route.sync")
		return false, nil
	case interconnect.Instr:
		if op.kind != opMem || op.op != protocol.OpRead {
			return false, fmt.Errorf("sim: proc %d: instruction-class operation at addr %d must be a plain read", p.id, op.addr)
		}
		s.countRoute(&s.routeInstrH, "route.instr")
		return true, s.serveLower(p, t, LowerRef{
			Proc: p.id, Class: interconnect.Instr, Op: protocol.OpRead,
			Addr: op.addr, Now: t, Start: t,
		})
	case interconnect.Data:
		s.countRoute(&s.routeDataH, "route.data")
		ref := LowerRef{Proc: p.id, Class: interconnect.Data, Addr: op.addr, Now: t, Start: t}
		switch {
		case op.kind == opBlockWrite:
			ref.Op = protocol.OpWriteBlock
			ref.Addr = s.cfg.Geometry.Base(s.cfg.Geometry.BlockOf(op.addr))
			ref.Vals = op.vals
		case op.kind == opMem && (op.op == protocol.OpRead || op.op == protocol.OpReadEx):
			ref.Op = protocol.OpRead
		case op.kind == opMem && op.op == protocol.OpWrite:
			ref.Op = protocol.OpWrite
			ref.Value = op.value
		default:
			return false, fmt.Errorf("sim: proc %d: data-class operation at addr %d is not a plain read/write", p.id, op.addr)
		}
		return true, s.serveLower(p, t, ref)
	default:
		if !s.strictClass {
			return false, nil
		}
		return false, fmt.Errorf("sim: proc %d: unclassified reference at addr %d on a tiered machine; classify it sync, instr, or data", p.id, op.addr)
	}
}

// serveLower runs one reference against the lower tier and completes
// the processor's operation at the returned time.
func (s *System) serveLower(p *Proc, t int64, ref LowerRef) error {
	done, v, err := s.lower.LowerAccess(ref)
	if err != nil {
		return fmt.Errorf("sim: proc %d: lower tier failed at addr %d: %w", p.id, ref.Addr, err)
	}
	if done < t {
		done = t
	}
	s.respond(p, done, Result{Value: v, OK: true})
	return nil
}
