// Compiled transition tables: every registered protocol is a pure
// state machine, so each hook can be flattened into a dense lookup
// table indexed by a packed (state, event) key and consulted with one
// array load instead of an interface call. Tables are compiled at
// first use by exhaustively enumerating the reachable state × event
// space against the method implementations — the methods stay the
// oracle (differentially tested in internal/ptest), and every lookup
// falls back to them outside the compiled domain, so behavior is
// byte-for-byte identical by construction.
//
// Key layout (mirrors what the engines actually pass):
//
//	ProcAccess  (state, op)
//	Complete    (state, op, t.Cmd, t.Lines.{Hit,SourceHit,Dirty,Locked}, t.AfterWait)
//	Snoop       (state, t.Cmd)
//	Evict/Privilege/IsDirty/IsSource (state)
//
// Complete and Snoop read only those Transaction fields; Compile
// verifies this per cell by probing each implementation twice — once
// with every irrelevant field zero, once with all of them set to
// noisy values — and refuses to compile a protocol whose results
// differ (the caller then keeps the method path). Compilation is one
// breadth-first pass: each reachable state's row is filled as the
// state is dequeued, and the zero probes' results are also what
// discovers the next states, so every cell costs exactly those two
// probes. The probe transactions live in storage reused across probes,
// and the implementations reject a cell by panicking with a value
// (UnexpectedCmd) rather than a formatted string, so a compile of all
// registered protocols allocates about once per rejected probe.
package protocol

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"

	"cachesync/internal/bus"
)

const (
	// numOps is the number of processor-side operations (OpRead..OpWriteBlock).
	numOps = int(OpWriteBlock) + 1
	// numCmds is the number of bus commands, including bus.None.
	numCmds = int(bus.IOWrite) + 1
	// numCompleteFlags spans the packed response-line/AfterWait flag
	// combinations a Complete key distinguishes (5 bits).
	numCompleteFlags = 32
	// maxTableState bounds the dense state range; protocols encoding
	// per-line bookkeeping in high state bits exceed it and simply keep
	// the method path.
	maxTableState = 63
)

// Complete-key flag bits.
const (
	flagHit = 1 << iota
	flagSourceHit
	flagDirty
	flagLocked
	flagAfterWait
)

// completeFlags packs the transaction fields a Complete key carries.
func completeFlags(t *bus.Transaction) int {
	f := 0
	if t.Lines.Hit {
		f |= flagHit
	}
	if t.Lines.SourceHit {
		f |= flagSourceHit
	}
	if t.Lines.Dirty {
		f |= flagDirty
	}
	if t.Lines.Locked {
		f |= flagLocked
	}
	if t.AfterWait {
		f |= flagAfterWait
	}
	return f
}

// completeCell is one Complete table entry; ok=false marks a cell the
// implementation panicked on (unreachable event), which falls back to
// the method so the panic message stays identical.
type completeCell struct {
	res CompleteResult
	ok  bool
}

// snoopCell is one Snoop table entry.
type snoopCell struct {
	res SnoopResult
	ok  bool
}

// Table holds the compiled transition tables of one protocol. All
// lookups fall back to the underlying methods for states or events
// outside the compiled domain, so a Table is always safe to consult.
type Table struct {
	proto   Protocol
	nstates int

	valid    []bool         // [state]: state is in the compiled reachable set
	proc     []ProcResult   // [state][op]
	complete []completeCell // [state][op][cmd][flags]
	snoop    []snoopCell    // [state][cmd]
	evict    []Evict        // [state]
	priv     []Priv         // [state]
	dirty    []bool         // [state]
	source   []bool         // [state]
}

// Proto returns the protocol the table was compiled from.
func (t *Table) Proto() Protocol { return t.proto }

// NumStates returns the size of the compiled dense state range.
func (t *Table) NumStates() int { return t.nstates }

// ProcAccess is the table-driven Protocol.ProcAccess.
func (t *Table) ProcAccess(s State, op Op) ProcResult {
	if i := int(s)*numOps + int(op); i < len(t.proc) && t.valid[s] {
		return t.proc[i]
	}
	return t.proto.ProcAccess(s, op)
}

// Complete is the table-driven Protocol.Complete.
func (t *Table) Complete(s State, op Op, txn *bus.Transaction) CompleteResult {
	if int(s) < t.nstates && t.valid[s] && int(op) < numOps && int(txn.Cmd) < numCmds {
		c := t.complete[((int(s)*numOps+int(op))*numCmds+int(txn.Cmd))*numCompleteFlags+completeFlags(txn)]
		if c.ok {
			return c.res
		}
	}
	return t.proto.Complete(s, op, txn)
}

// Snoop is the table-driven Protocol.Snoop.
func (t *Table) Snoop(s State, txn *bus.Transaction) SnoopResult {
	if i := int(s)*numCmds + int(txn.Cmd); i < len(t.snoop) && t.valid[s] {
		if c := t.snoop[i]; c.ok {
			return c.res
		}
	}
	return t.proto.Snoop(s, txn)
}

// Evict is the table-driven Protocol.Evict.
func (t *Table) Evict(s State) Evict {
	if int(s) < t.nstates && t.valid[s] {
		return t.evict[s]
	}
	return t.proto.Evict(s)
}

// Privilege is the table-driven Protocol.Privilege.
func (t *Table) Privilege(s State) Priv {
	if int(s) < t.nstates && t.valid[s] {
		return t.priv[s]
	}
	return t.proto.Privilege(s)
}

// IsDirty is the table-driven Protocol.IsDirty.
func (t *Table) IsDirty(s State) bool {
	if int(s) < t.nstates && t.valid[s] {
		return t.dirty[s]
	}
	return t.proto.IsDirty(s)
}

// IsSource is the table-driven Protocol.IsSource.
func (t *Table) IsSource(s State) bool {
	if int(s) < t.nstates && t.valid[s] {
		return t.source[s]
	}
	return t.proto.IsSource(s)
}

// safeProc calls ProcAccess with panic recovery.
func safeProc(p Protocol, s State, op Op) (r ProcResult, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return p.ProcAccess(s, op), true
}

// safeComplete calls Complete with panic recovery.
func safeComplete(p Protocol, s State, op Op, t *bus.Transaction) (r CompleteResult, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return p.Complete(s, op, t), true
}

// safeSnoop calls Snoop with panic recovery.
func safeSnoop(p Protocol, s State, t *bus.Transaction) (r SnoopResult, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return p.Snoop(s, t), true
}

// allFlags is the Complete key with every flag set; a Snoop key
// carries only Cmd, so its noisy probe sets every response line too.
const allFlags = numCompleteFlags - 1

// probeTxns holds the two transactions each Complete and Snoop cell is
// probed with, in storage reused across probes. Every call rebuilds its
// transaction whole, so each probe sees fresh inputs whatever the
// previous one did to them.
type probeTxns struct {
	zero, noisy bus.Transaction

	blockData  [4]uint64
	suppliers  [2]int
	dirtyUnits [2]bool
}

// key returns the transaction a (cmd, flags) Complete key denotes, with
// every non-key field zero. A Snoop key is key(cmd, 0).
func (b *probeTxns) key(cmd bus.Cmd, flags int) *bus.Transaction {
	b.zero = bus.Transaction{
		Cmd: cmd,
		Lines: bus.Lines{
			Hit:       flags&flagHit != 0,
			SourceHit: flags&flagSourceHit != 0,
			Dirty:     flags&flagDirty != 0,
			Locked:    flags&flagLocked != 0,
		},
		AfterWait: flags&flagAfterWait != 0,
	}
	return &b.zero
}

// noisyKey returns the same key with every non-key field set, for the
// field-dependence probe. A Snoop key's noisy form is
// noisyKey(cmd, allFlags).
func (b *probeTxns) noisyKey(cmd bus.Cmd, flags int) *bus.Transaction {
	b.blockData = [4]uint64{1, 2, 3, 4}
	b.suppliers = [2]int{1, 2}
	b.dirtyUnits = [2]bool{true, false}
	b.noisy = *b.key(cmd, flags)
	t := &b.noisy
	t.Block = 3
	t.Addr = 29
	t.Requester = 5
	t.LockIntent = true
	t.UnlockIntent = true
	t.MemUpdate = true
	t.WordData = 0xdeadbeefcafe
	t.Lines.Inhibit = true
	t.BlockData = b.blockData[:]
	t.Suppliers = b.suppliers[:]
	t.Flushed = true
	t.SupplyWordCount = 2
	t.DirtyUnits = b.dirtyUnits[:]
	return t
}

// completeCells is the number of Complete cells in one state's row.
const completeCells = numOps * numCmds * numCompleteFlags

// row is one reachable state's compiled cells, or the first error its
// cells raise in the order Compile reports them.
type row struct {
	evict         Evict
	priv          Priv
	dirty, source bool
	proc          [numOps]ProcResult
	complete      [completeCells]completeCell
	snoop         [numCmds]snoopCell
	err           error
}

// noError is compiler.errState while no row has failed.
const noError = State(maxTableState + 1)

// compiler is the state of one Compile: a breadth-first pass over the
// reachable states that probes every cell of each state as it is
// dequeued.
type compiler struct {
	p     Protocol
	txns  probeTxns
	seen  [1 << 16 / 64]uint64 // bitset over every State value
	queue []State
	max   State
	rows  [maxTableState + 1]*row
	// errState is the lowest state whose row failed (noError if none).
	// A state above it, or any state once the dense bound is exceeded,
	// is probed for discovery only: Compile fails either way, and only
	// the lowest failing state's error is reported.
	errState State
}

// add marks s reachable and queues it for a visit.
func (c *compiler) add(s State) {
	if c.seen[s/64]&(1<<(s%64)) != 0 {
		return
	}
	c.seen[s/64] |= 1 << (s % 64)
	c.queue = append(c.queue, s)
	if s > c.max {
		c.max = s
	}
}

// visit probes every cell of state s. Zero-transaction results seed
// discovery. Unless the compile is already bound to fail, s's row is
// filled too, each Complete and Snoop cell from its zero and noisy
// probes, checking in this order: per-state hooks, then per op its
// ProcAccess and Complete cells, then Snoop. After the row's first
// error the remaining cells are probed for discovery only.
func (c *compiler) visit(s State) {
	p := c.p
	var r *row
	if c.max <= maxTableState && s < c.errState {
		r = &row{}
		c.rows[s] = r
	}
	fail := func(err error) {
		r.err, c.errState, r = err, s, nil
	}
	if r != nil {
		if err := r.hooks(p, s); err != nil {
			fail(err)
		}
	}
	for op := Op(0); int(op) < numOps; op++ {
		pr, ok := safeProc(p, s, op)
		if ok && pr.Hit {
			c.add(pr.NewState)
		}
		if r != nil {
			if ok {
				r.proc[op] = pr
			} else {
				fail(fmt.Errorf("protocol %s: ProcAccess(%d, %s) panicked on reachable state",
					p.Name(), s, op))
			}
		}
		for cmd := bus.Cmd(0); int(cmd) < numCmds; cmd++ {
			for flags := 0; flags < numCompleteFlags; flags++ {
				rz, okz := safeComplete(p, s, op, c.txns.key(cmd, flags))
				if okz {
					c.add(rz.NewState)
				}
				if r == nil {
					continue
				}
				rn, okn := safeComplete(p, s, op, c.txns.noisyKey(cmd, flags))
				if okz != okn || (okz && rz != rn) {
					fail(fmt.Errorf("protocol %s: Complete(%d, %s, %s/flags=%#x) depends on a transaction field outside the table key",
						p.Name(), s, op, cmd, flags))
					continue
				}
				r.complete[(int(op)*numCmds+int(cmd))*numCompleteFlags+flags] = completeCell{res: rz, ok: okz}
			}
		}
	}
	for cmd := bus.Cmd(0); int(cmd) < numCmds; cmd++ {
		rz, okz := safeSnoop(p, s, c.txns.key(cmd, 0))
		if okz {
			c.add(rz.NewState)
		}
		if r == nil {
			continue
		}
		rn, okn := safeSnoop(p, s, c.txns.noisyKey(cmd, allFlags))
		if okz != okn || (okz && rz != rn) {
			fail(fmt.Errorf("protocol %s: Snoop(%d, %s) depends on a transaction field outside the table key",
				p.Name(), s, cmd))
			continue
		}
		r.snoop[cmd] = snoopCell{res: rz, ok: okz}
	}
}

// hooks fills the per-state cells. They must be total over reachable
// states: the engines call them unconditionally.
func (r *row) hooks(p Protocol, s State) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("protocol %s: per-state hook panicked on reachable state %d: %v",
				p.Name(), s, v)
		}
	}()
	r.evict = p.Evict(s)
	r.priv = p.Privilege(s)
	r.dirty = p.IsDirty(s)
	r.source = p.IsSource(s)
	return nil
}

// Compile flattens p's state machine into dense tables by exhaustive
// enumeration of the reachable state × event space, in one
// breadth-first pass from Invalid and the lock-purge reclaim states
// (entered from memory lock tags, not transitions). As each state is
// dequeued its whole row is computed, each Complete and Snoop cell from
// two probes: the zero transaction, whose result also seeds discovery,
// and the noisy one. It fails — and the caller keeps the method path —
// when the reachable states exceed the dense bound, when a per-state
// hook or ProcAccess panics on a reachable state, or when
// Complete/Snoop turn out to depend on a Transaction field outside the
// table key; a bound error comes first, then the lowest failing
// state's first error.
func Compile(p Protocol) (*Table, error) {
	c := &compiler{p: p, errState: noError}
	c.add(Invalid)
	if lr, ok := p.(LockReclaimer); ok {
		c.add(lr.ReclaimedLockState(false))
		c.add(lr.ReclaimedLockState(true))
	}
	for len(c.queue) > 0 {
		s := c.queue[0]
		c.queue = c.queue[1:]
		c.visit(s)
	}

	if c.max > maxTableState {
		return nil, fmt.Errorf("protocol %s: state %d exceeds dense table bound %d",
			p.Name(), c.max, maxTableState)
	}
	if c.errState != noError {
		return nil, c.rows[c.errState].err
	}

	n := int(c.max) + 1
	t := &Table{
		proto:    p,
		nstates:  n,
		valid:    make([]bool, n),
		proc:     make([]ProcResult, n*numOps),
		complete: make([]completeCell, n*completeCells),
		snoop:    make([]snoopCell, n*numCmds),
		evict:    make([]Evict, n),
		priv:     make([]Priv, n),
		dirty:    make([]bool, n),
		source:   make([]bool, n),
	}
	for si, r := range c.rows[:n] {
		if r == nil {
			continue
		}
		t.valid[si] = true
		t.evict[si], t.priv[si], t.dirty[si], t.source[si] = r.evict, r.priv, r.dirty, r.source
		copy(t.proc[si*numOps:], r.proc[:])
		copy(t.complete[si*completeCells:], r.complete[:])
		copy(t.snoop[si*numCmds:], r.snoop[:])
	}
	return t, nil
}

// tableCache memoizes compiled tables per registry name (nil marks a
// protocol that failed to compile, so the failure is not retried).
var tableCache sync.Map // string -> *Table

// TableFor returns the compiled table for p, or nil when p should stay
// on the method path: p is not the registered implementation of its
// name (e.g. a model-checker mutant wrapper), or its machine does not
// fit the dense tables. Safe for concurrent use.
func TableFor(p Protocol) *Table {
	f, registered := registry[p.Name()]
	if !registered || reflect.TypeOf(f()) != reflect.TypeOf(p) {
		return nil
	}
	if v, hit := tableCache.Load(p.Name()); hit {
		return v.(*Table)
	}
	t, err := Compile(p)
	if err != nil {
		t = nil
	}
	v, _ := tableCache.LoadOrStore(p.Name(), t)
	return v.(*Table)
}

// Packed fixed-width cell encodings. The in-memory tables store plain
// structs (one load, no decode), but every cell round-trips through
// these packed forms: they are the golden-file representation gated by
// verify.sh, and the round-trip is exhaustively asserted in tests.

// packProc packs a ProcResult into 16 bits:
// bits 0-7 NewState, 8 Hit, 9-12 Cmd, 13 LockIntent, 14 MemUpdate.
func packProc(r ProcResult) uint16 {
	v := uint16(r.NewState) & 0xff
	if r.Hit {
		v |= 1 << 8
	}
	v |= (uint16(r.Cmd) & 0xf) << 9
	if r.LockIntent {
		v |= 1 << 13
	}
	if r.MemUpdate {
		v |= 1 << 14
	}
	return v
}

func unpackProc(v uint16) ProcResult {
	return ProcResult{
		NewState:   State(v & 0xff),
		Hit:        v&(1<<8) != 0,
		Cmd:        bus.Cmd(v >> 9 & 0xf),
		LockIntent: v&(1<<13) != 0,
		MemUpdate:  v&(1<<14) != 0,
	}
}

// packComplete packs a Complete cell into 16 bits:
// bits 0-7 NewState, 8 Done, 9 BusyWait, 15 ok.
func packComplete(c completeCell) uint16 {
	v := uint16(c.res.NewState) & 0xff
	if c.res.Done {
		v |= 1 << 8
	}
	if c.res.BusyWait {
		v |= 1 << 9
	}
	if c.ok {
		v |= 1 << 15
	}
	return v
}

func unpackComplete(v uint16) completeCell {
	return completeCell{
		res: CompleteResult{
			NewState: State(v & 0xff),
			Done:     v&(1<<8) != 0,
			BusyWait: v&(1<<9) != 0,
		},
		ok: v&(1<<15) != 0,
	}
}

// packSnoop packs a Snoop cell into 16 bits: bits 0-7 NewState, then
// Hit, Locked, Supply, Dirty, Flush, UpdateWord, TakeWord, ok.
func packSnoop(c snoopCell) uint16 {
	v := uint16(c.res.NewState) & 0xff
	bits := []bool{c.res.Hit, c.res.Locked, c.res.Supply, c.res.Dirty,
		c.res.Flush, c.res.UpdateWord, c.res.TakeWord, c.ok}
	for i, b := range bits {
		if b {
			v |= 1 << (8 + i)
		}
	}
	return v
}

func unpackSnoop(v uint16) snoopCell {
	bit := func(i int) bool { return v&(1<<(8+i)) != 0 }
	return snoopCell{
		res: SnoopResult{
			NewState:   State(v & 0xff),
			Hit:        bit(0),
			Locked:     bit(1),
			Supply:     bit(2),
			Dirty:      bit(3),
			Flush:      bit(4),
			UpdateWord: bit(5),
			TakeWord:   bit(6),
		},
		ok: bit(7),
	}
}

// packEvict packs an Evict plus the remaining per-state hooks into 8
// bits: Writeback, LockPurge, Waiter, dirty, source, then priv (2 bits).
func packEvict(e Evict, priv Priv, dirty, source bool) uint8 {
	v := uint8(0)
	bits := []bool{e.Writeback, e.LockPurge, e.Waiter, dirty, source}
	for i, b := range bits {
		if b {
			v |= 1 << i
		}
	}
	v |= (uint8(priv) & 3) << 5
	return v
}

func unpackEvict(v uint8) (e Evict, priv Priv, dirty, source bool) {
	e = Evict{Writeback: v&1 != 0, LockPurge: v&2 != 0, Waiter: v&4 != 0}
	return e, Priv(v >> 5 & 3), v&8 != 0, v&16 != 0
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

// sortedStates returns the compiled reachable states in order (test
// and debugging helper).
func (t *Table) sortedStates() []State {
	var out []State
	for si := 0; si < t.nstates; si++ {
		if t.valid[si] {
			out = append(out, State(si))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
