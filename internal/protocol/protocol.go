// Package protocol defines the abstraction every cache-synchronization
// scheme in the paper implements: a pure state machine over per-line
// states, driven from two sides — the processor (ProcAccess/Complete)
// and the bus (Snoop) — plus an eviction policy and a self-description
// used to regenerate the paper's Table 1.
//
// Protocols hold no per-line storage of their own: all per-line state
// is encoded in the State value stored by the cache, which keeps
// implementations table-like and directly unit-testable.
package protocol

// The compiled transition tables (table.go) are committed as diffable
// goldens under goldens/, one file per registered protocol;
// TestTransitionGoldens gates on their freshness, so regenerate after
// any protocol change.
//go:generate go test . -run ^TestTransitionGoldens$ -update

import (
	"fmt"
	"sort"

	"cachesync/internal/bus"
)

// State is a per-line protocol state. State 0 is Invalid in every
// protocol. Protocols may use high bits for private per-line
// bookkeeping (e.g. Rudolph-Segall's write run counter).
type State uint16

// Invalid is the universal empty-line state.
const Invalid State = 0

// Op is a processor-side operation on a cached word or block.
type Op uint8

const (
	// OpRead is a plain load.
	OpRead Op = iota
	// OpReadEx is a compiler-issued load of unshared data that should
	// acquire write privilege on a miss (Feature 5, static
	// determination: Yen et al., Katz et al.).
	OpReadEx
	// OpWrite is a plain store.
	OpWrite
	// OpLock is a lock-read: a load with the processor lock line
	// asserted (Section E.3). Only the paper's protocol implements it
	// natively; the syncprim layer lowers locking to test-and-set for
	// the other protocols.
	OpLock
	// OpUnlock is an unlock-write: a store with the unlock line
	// asserted (Figure 8).
	OpUnlock
	// OpWriteBlock overwrites a whole block; protocols with Feature 9
	// skip the fetch on a miss.
	OpWriteBlock
)

var opNames = [...]string{
	OpRead: "read", OpReadEx: "readex", OpWrite: "write",
	OpLock: "lock", OpUnlock: "unlock", OpWriteBlock: "writeblock",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsWrite reports whether the operation stores data.
func (o Op) IsWrite() bool {
	return o == OpWrite || o == OpUnlock || o == OpWriteBlock
}

// ProcResult is a protocol's answer to a processor access.
type ProcResult struct {
	// Hit: the access completes inside the cache with no bus work;
	// the line moves to NewState.
	Hit      bool
	NewState State

	// Otherwise the cache must issue Cmd on the bus; when the
	// transaction completes, Complete is consulted.
	Cmd        bus.Cmd
	LockIntent bool // the bus request carries lock intent
	MemUpdate  bool // UpdateWord also updates memory (Firefly)
}

// CompleteResult is a protocol's answer once the requested bus
// transaction has executed and the response lines are known.
type CompleteResult struct {
	NewState State
	// Done: the processor operation has finished. When false, the
	// engine re-invokes ProcAccess with the new state (multi-phase
	// operations such as Goodman's fetch-then-write-through).
	Done bool
	// BusyWait: the request was denied because the block is locked;
	// the cache arms its busy-wait register (Figure 7) and the
	// processor waits for the unlock broadcast.
	BusyWait bool
}

// SnoopResult is a protocol's reaction to another cache's bus
// transaction against a line in state s.
type SnoopResult struct {
	NewState State
	Hit      bool // assert the hit line
	Locked   bool // assert the locked line; the request is denied
	Supply   bool // offer to supply the block (source function)
	Dirty    bool // drive dirty status alongside the supplied block
	Flush    bool // also flush the block to memory during the transfer (Feature 7 "F")

	UpdateWord bool // apply the broadcast word to the local copy (update protocols)
	TakeWord   bool // accept the word even into an invalid line (Rudolph-Segall)
}

// Evict describes what must happen when a line in state s is chosen
// as a victim.
type Evict struct {
	Writeback bool // the block is dirty and must be flushed
	LockPurge bool // the line holds a lock: write the lock bit to memory (Section E.3)
	Waiter    bool // the purged lock had a recorded waiter
}

// Priv is the access privilege a state confers (Section C.1's
// atomicity/concurrency facets).
type Priv uint8

const (
	// PrivNone: the line is invalid.
	PrivNone Priv = iota
	// PrivRead: shared-access privilege.
	PrivRead
	// PrivWrite: sole-access (read and write) privilege.
	PrivWrite
	// PrivLock: sole-access privilege, locked by this cache.
	PrivLock
)

var privNames = [...]string{"none", "read", "write", "lock"}

// String implements fmt.Stringer.
func (p Priv) String() string {
	if int(p) < len(privNames) {
		return privNames[p]
	}
	return fmt.Sprintf("priv(%d)", uint8(p))
}

// Protocol is a cache-synchronization scheme. Implementations must be
// stateless (safe to share across caches): all per-line state lives in
// the State values held by each cache.
type Protocol interface {
	// Name returns the registry name, e.g. "bitar", "goodman".
	Name() string
	// Features describes the protocol for Table 1 regeneration.
	Features() Features
	// StateName renders a state for traces and figures.
	StateName(s State) string
	// ProcAccess decides how a processor operation proceeds from
	// state s.
	ProcAccess(s State, op Op) ProcResult
	// Complete installs the state after the cache's own bus
	// transaction t has executed (response lines are in t.Lines).
	Complete(s State, op Op, t *bus.Transaction) CompleteResult
	// Snoop reacts to another requester's transaction t against a
	// line in state s. It is called only for lines holding t.Block
	// (including Invalid lines only for protocols that declare
	// SnoopsInvalid in Features, e.g. Rudolph-Segall).
	Snoop(s State, t *bus.Transaction) SnoopResult
	// Evict describes the eviction obligations of state s.
	Evict(s State) Evict

	// Privilege classifies the access rights state s confers; used by
	// the coherence invariant checks and the syncprim layer.
	Privilege(s State) Priv
	// IsDirty reports whether state s holds data newer than memory;
	// used by the conservation invariant and the Feature 3
	// interference statistic (write hits to clean blocks).
	IsDirty(s State) bool
	// IsSource reports whether state s carries the source function
	// (it would supply the block on a fetch).
	IsSource(s State) bool
}

// UnexpectedCmd is the value a Complete implementation panics with
// when its transaction carries a command it never issues. Compile
// probes every command in every state, and most probes are rejected
// this way, so the message is formatted only when something prints
// the value (fmt's %v and the runtime both use Error).
type UnexpectedCmd struct {
	Prefix string // the implementing package, e.g. "goodman", or "core" for bitar
	Cmd    bus.Cmd
}

// Error implements error.
func (e UnexpectedCmd) Error() string {
	return fmt.Sprintf("%s: Complete with unexpected cmd %v", e.Prefix, e.Cmd)
}

// registry of protocol constructors.
var registry = map[string]func() Protocol{}

// Register installs a protocol constructor under name. It panics on
// duplicates; registration happens in package init functions.
func Register(name string, f func() Protocol) {
	if _, dup := registry[name]; dup {
		panic("protocol: duplicate registration of " + name)
	}
	registry[name] = f
}

// New instantiates the named protocol.
func New(name string) (Protocol, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("protocol: unknown protocol %q (have %v)", name, Names())
	}
	return f(), nil
}

// MustNew is New for static configuration; it panics on unknown names.
func MustNew(name string) Protocol {
	p, err := New(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names lists all registered protocols in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
