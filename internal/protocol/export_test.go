package protocol

import (
	"fmt"
	"strings"

	"cachesync/internal/bus"
)

// Test-only exports: the packed encodings and cell stores are
// unexported, so the exhaustive round-trip and table-vs-method tests
// reach them through these hooks.

const (
	NumOpsForTest           = numOps
	NumCmdsForTest          = numCmds
	NumCompleteFlagsForTest = numCompleteFlags
	MaxTableStateForTest    = maxTableState
)

// KeyTxnForTest builds the zero-noise transaction of a Complete key.
func KeyTxnForTest(cmd bus.Cmd, flags int) bus.Transaction { return *new(probeTxns).key(cmd, flags) }

// NoisyTxnForTest builds the all-noise transaction of a Complete key.
func NoisyTxnForTest(cmd bus.Cmd, flags int) bus.Transaction {
	return *new(probeTxns).noisyKey(cmd, flags)
}

// SnoopNoisyTxnForTest builds the all-noise transaction of a Snoop key.
func SnoopNoisyTxnForTest(cmd bus.Cmd) bus.Transaction {
	return *new(probeTxns).noisyKey(cmd, allFlags)
}

// ValidStatesForTest lists the compiled reachable states.
func (t *Table) ValidStatesForTest() []State { return t.sortedStates() }

// RoundTripAllCellsForTest re-encodes every cell of every table
// through its packed fixed-width form and returns the first mismatch.
func (t *Table) RoundTripAllCellsForTest() error {
	for i, c := range t.proc {
		if got := unpackProc(packProc(c)); got != c {
			return fmt.Errorf("proc cell %d: %+v -> %04x -> %+v", i, c, packProc(c), got)
		}
	}
	for i, c := range t.complete {
		if got := unpackComplete(packComplete(c)); got != c {
			return fmt.Errorf("complete cell %d: %+v -> %04x -> %+v", i, c, packComplete(c), got)
		}
	}
	for i, c := range t.snoop {
		if got := unpackSnoop(packSnoop(c)); got != c {
			return fmt.Errorf("snoop cell %d: %+v -> %04x -> %+v", i, c, packSnoop(c), got)
		}
	}
	for si := 0; si < t.nstates; si++ {
		packed := packEvict(t.evict[si], t.priv[si], t.dirty[si], t.source[si])
		e, priv, dirty, source := unpackEvict(packed)
		if e != t.evict[si] || priv != t.priv[si] || dirty != t.dirty[si] || source != t.source[si] {
			return fmt.Errorf("state cell %d: evict=%+v priv=%v dirty=%v source=%v -> %02x -> %+v %v %v %v",
				si, t.evict[si], t.priv[si], t.dirty[si], t.source[si], packed, e, priv, dirty, source)
		}
	}
	return nil
}

// PackRoundTripForTest round-trips arbitrary synthetic cells (all bit
// patterns, not just those a protocol reaches).
func PackRoundTripForTest(pr ProcResult, cc CompleteResult, cok bool, sr SnoopResult, sok bool, e Evict, priv Priv, dirty, source bool) error {
	if got := unpackProc(packProc(pr)); got != pr {
		return fmt.Errorf("proc %+v -> %+v", pr, got)
	}
	if got := unpackComplete(packComplete(completeCell{res: cc, ok: cok})); got.res != cc || got.ok != cok {
		return fmt.Errorf("complete %+v/%v -> %+v", cc, cok, got)
	}
	if got := unpackSnoop(packSnoop(snoopCell{res: sr, ok: sok})); got.res != sr || got.ok != sok {
		return fmt.Errorf("snoop %+v/%v -> %+v", sr, sok, got)
	}
	ge, gp, gd, gs := unpackEvict(packEvict(e, priv, dirty, source))
	if ge != e || gp != priv || gd != dirty || gs != source {
		return fmt.Errorf("evict %+v/%v/%v/%v -> %+v/%v/%v/%v", e, priv, dirty, source, ge, gp, gd, gs)
	}
	return nil
}

// GoldenText renders the table in the committed golden format: one
// deterministic, diffable text file per protocol. Every cell appears
// as its packed hex form; lines whose cells are all zero are elided.
func (t *Table) GoldenText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# compiled transition tables: %s (generated; go generate ./internal/protocol)\n", t.proto.Name())
	fmt.Fprintf(&b, "# proc cell: bits 0-7 newstate, 8 hit, 9-12 cmd, 13 lockintent, 14 memupdate\n")
	fmt.Fprintf(&b, "# complete cell: bits 0-7 newstate, 8 done, 9 busywait, 15 ok; 32 cells per line, flag order hit|sourcehit|dirty|locked|afterwait\n")
	fmt.Fprintf(&b, "# snoop cell: bits 0-7 newstate, then hit,locked,supply,dirty,flush,updateword,takeword,ok; one line per state, cmd order none..iowrite\n")
	fmt.Fprintf(&b, "protocol %s\nstates %d\n", t.proto.Name(), t.nstates)
	for si := 0; si < t.nstates; si++ {
		if !t.valid[si] {
			fmt.Fprintf(&b, "state %d unreachable\n", si)
			continue
		}
		fmt.Fprintf(&b, "state %d name=%s evict=%02x\n", si, t.proto.StateName(State(si)),
			packEvict(t.evict[si], t.priv[si], t.dirty[si], t.source[si]))
	}
	for si := 0; si < t.nstates; si++ {
		if !t.valid[si] {
			continue
		}
		fmt.Fprintf(&b, "proc %d", si)
		for op := 0; op < numOps; op++ {
			fmt.Fprintf(&b, " %04x", packProc(t.proc[si*numOps+op]))
		}
		b.WriteByte('\n')
	}
	for si := 0; si < t.nstates; si++ {
		if !t.valid[si] {
			continue
		}
		fmt.Fprintf(&b, "snoop %d", si)
		for cmd := 0; cmd < numCmds; cmd++ {
			fmt.Fprintf(&b, " %04x", packSnoop(t.snoop[si*numCmds+cmd]))
		}
		b.WriteByte('\n')
	}
	for si := 0; si < t.nstates; si++ {
		if !t.valid[si] {
			continue
		}
		for op := 0; op < numOps; op++ {
			for cmd := 0; cmd < numCmds; cmd++ {
				base := ((si*numOps+op)*numCmds + cmd) * numCompleteFlags
				any := false
				for f := 0; f < numCompleteFlags; f++ {
					if packComplete(t.complete[base+f]) != 0 {
						any = true
						break
					}
				}
				if !any {
					continue
				}
				fmt.Fprintf(&b, "complete %d %s %s", si, Op(op), bus.Cmd(cmd))
				for f := 0; f < numCompleteFlags; f++ {
					fmt.Fprintf(&b, " %04x", packComplete(t.complete[base+f]))
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// GoldenTexts compiles every registered protocol and returns name →
// golden text; protocols that do not compile map to an explanatory
// stub so drift in *compilability* is also caught by the golden gate.
func GoldenTexts() map[string]string {
	out := make(map[string]string, len(registry))
	for _, name := range Names() {
		t, err := Compile(MustNew(name))
		if err != nil {
			out[name] = fmt.Sprintf("# compiled transition tables: %s\nuncompilable: %v\n", name, err)
			continue
		}
		out[name] = t.GoldenText()
	}
	return out
}
