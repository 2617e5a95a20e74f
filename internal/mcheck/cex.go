package mcheck

import (
	"fmt"
	"strings"

	"cachesync/internal/addr"
	"cachesync/internal/bus"
	"cachesync/internal/cache"
	"cachesync/internal/coherence"
	"cachesync/internal/protocol"
	"cachesync/internal/report"
	"cachesync/internal/sim"
)

// RenderCounterexample re-executes a counterexample trace on a fresh
// machine, collects the bus transactions of every step, and renders
// the failure in the style of the paper's figures: the numbered
// operation sequence, the bus activity as a sequence diagram, and the
// invariants the final state violates.
func RenderCounterexample(opts Options, cex *Counterexample) string {
	o := opts.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "counterexample for %s (%d procs, %d blocks, %d steps):\n",
		o.Protocol.Name(), o.Procs, o.Blocks, len(cex.Trace))

	m := newMachine(o)
	var all []*bus.Transaction
	for i, a := range cex.Trace {
		var note string
		func() {
			defer func() {
				if r := recover(); r != nil {
					note = fmt.Sprintf("panic: %v", r)
				}
			}()
			sr, err := m.apply(a)
			switch {
			case err != nil:
				note = err.Error()
			case sr.denied:
				note = "denied (busy wait)"
			case sr.didRead:
				note = fmt.Sprintf("returns %d", sr.value)
			}
			m.commitShadow(a, sr)
		}()
		fmt.Fprintf(&b, "  %2d. %-22s", i+1, a)
		if len(m.txns) > 0 {
			cmds := make([]string, len(m.txns))
			for j, t := range m.txns {
				cmds[j] = t.Cmd.String()
			}
			fmt.Fprintf(&b, " bus: %s", strings.Join(cmds, ", "))
		} else {
			b.WriteString(" (no bus access)")
		}
		if note != "" {
			fmt.Fprintf(&b, "  — %s", note)
		}
		b.WriteString("\n")
		for _, t := range m.txns {
			all = append(all, t.Clone()) // the next apply reuses the records
		}
	}
	b.WriteString("\n")
	b.WriteString(report.NewSequenceDiagram("bus sequence:", o.Procs, all).Render())
	b.WriteString("\nfinal state:\n")
	for _, c := range m.caches {
		for _, blk := range m.universe {
			if st := c.State(blk); st != protocol.Invalid {
				fmt.Fprintf(&b, "  cache %d b%d: %s %v\n", c.ID(), blk, m.proto.StateName(st), c.Data(blk))
			}
		}
	}
	for _, blk := range m.universe {
		fmt.Fprintf(&b, "  memory  b%d: %v", blk, m.mem.ReadBlock(blk))
		if tag := m.mem.GetLockTag(blk); tag.Locked {
			fmt.Fprintf(&b, " [lock tag: owner %d, waiter %v]", tag.Owner, tag.Waiter)
		}
		b.WriteString("\n")
	}
	b.WriteString("violated:\n")
	for _, v := range cex.Violations {
		fmt.Fprintf(&b, "  - %s\n", v)
	}
	return b.String()
}

// recorder captures every bus transaction of a sim run (an extra
// snooper, never a requester). It clones each transaction: the engine
// pools its records.
type recorder struct{ txns []*bus.Transaction }

func (r *recorder) ID() int                  { return -2 }
func (r *recorder) Snoop(t *bus.Transaction) { r.txns = append(r.txns, t.Clone()) }

// stepGap spaces the counterexample's steps far enough apart in
// simulated time that the sim reproduces the exact interleaving.
const stepGap = 20000

// SimReplay replays a counterexample through a real sim.System — the
// full discrete-event engine, not the checker's executor — by pacing
// each processor's operations with Compute so the global step order is
// preserved. It returns the engine's own bus log as a sequence diagram
// plus the online coherence checker's verdict, confirming the
// violation outside the model checker. Traces containing evictions or
// denied operations are not sim-representable (the engine picks its
// own victims, and a denied processor blocks); those return an error.
func SimReplay(opts Options, cex *Counterexample) (out string, err error) {
	o := opts.withDefaults()

	// Pre-screen on the executor: a trace with denied steps would park
	// a sim processor and stall the remaining operations.
	pre := newMachine(o)
	for _, a := range cex.Trace {
		if a.Kind == ActEvict {
			return "", fmt.Errorf("mcheck: trace contains an eviction; not sim-replayable")
		}
		sr, aerr := pre.apply(a)
		if aerr != nil {
			return "", fmt.Errorf("mcheck: trace not replayable: %v", aerr)
		}
		if sr.denied {
			return "", fmt.Errorf("mcheck: trace contains a denied operation; not sim-replayable")
		}
		pre.commitShadow(a, sr)
	}

	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mcheck: sim replay panicked: %v", r)
		}
	}()

	cfg := sim.Config{
		Procs:     o.Procs,
		Protocol:  o.Protocol,
		Geometry:  addr.MustGeometry(o.Words, o.Words),
		Cache:     cache.Config{Sets: 1, Ways: o.Blocks},
		Timing:    sim.DefaultTiming(),
		MaxCycles: int64(len(cex.Trace)+2) * stepGap * 10,
	}
	s := sim.New(cfg)
	rec := &recorder{}
	s.Bus.Attach(rec)

	rs := make([]cexReplay, o.Procs)
	progs := make([]sim.Program, o.Procs)
	for i := range rs {
		rs[i] = cexReplay{trace: cex.Trace, geom: cfg.Geometry}
		progs[i] = &rs[i]
	}
	for k, a := range cex.Trace {
		rs[a.Proc].steps = append(rs[a.Proc].steps, k)
	}
	if rerr := s.RunPrograms(progs); rerr != nil {
		return "", fmt.Errorf("mcheck: sim replay: %w", rerr)
	}

	var b strings.Builder
	b.WriteString(report.NewSequenceDiagram(
		fmt.Sprintf("sim replay of the counterexample (%s):", o.Protocol.Name()), o.Procs, rec.txns).Render())
	viols := coherence.Check(s)
	if len(viols) == 0 {
		b.WriteString("\nsim replay: final state COHERENT (violation not reproduced by the engine)\n")
	} else {
		b.WriteString("\nsim replay confirms the violation in the real engine:\n")
		for _, v := range viols {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
	}
	return b.String(), nil
}

// cexReplay is one processor's share of a counterexample as a Program:
// a flat list of global step indexes, each paced by a Compute so that
// step k issues no earlier than cycle k*stepGap.
type cexReplay struct {
	trace []Action
	steps []int
	geom  addr.Geometry
	paced bool // the pacing Compute of steps[0] was issued
}

func (r *cexReplay) Next(p *sim.Proc, _ sim.Result) (sim.Op, bool) {
	for len(r.steps) > 0 {
		k := r.steps[0]
		if !r.paced {
			r.paced = true
			if w := int64(k)*stepGap - p.Now(); w > 0 {
				return sim.ComputeOp(w), true
			}
		}
		r.steps, r.paced = r.steps[1:], false
		a := r.trace[k]
		at := r.geom.Base(addr.Block(a.Block)) + addr.Addr(a.Word)
		switch a.Op {
		case protocol.OpRead, protocol.OpReadEx:
			return sim.ReadOp(at), true
		case protocol.OpWrite:
			return sim.WriteOp(at, a.Value), true
		case protocol.OpLock:
			return sim.LockReadOp(at), true
		case protocol.OpUnlock:
			return sim.UnlockWriteOp(at, a.Value), true
		case protocol.OpWriteBlock:
			vals := make([]uint64, r.geom.BlockWords)
			for i := range vals {
				vals[i] = a.Value
			}
			return sim.WriteBlockOp(r.geom.Base(addr.Block(a.Block)), vals), true
		}
	}
	return sim.Op{}, false
}
