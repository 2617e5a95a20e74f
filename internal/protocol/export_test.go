package protocol

import (
	"fmt"

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
