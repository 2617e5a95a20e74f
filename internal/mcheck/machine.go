package mcheck

import (
	"fmt"
	"sort"

	"cachesync/internal/addr"
	"cachesync/internal/bus"
	"cachesync/internal/cache"
	"cachesync/internal/coherence"
	"cachesync/internal/memory"
	"cachesync/internal/protocol"
)

// machine is one executable copy of the model: real caches and memory
// driven by an atomic-step executor that mirrors internal/sim's bus
// semantics without the clock. Each BFS worker owns one machine and
// repeatedly restores it to a frontier state, applies an action, and
// re-encodes.
type machine struct {
	opts  Options
	proto protocol.Protocol
	// tab is the compiled transition table of proto (nil for mutant
	// wrappers): the atomic-step executor makes the same protocol
	// decisions through the same tables the simulator uses, keeping
	// exploration off the interface-dispatch path.
	tab    *protocol.Table
	feats  protocol.Features
	geom   addr.Geometry
	caches []*cache.Cache
	mem    *memory.Memory

	// shadow is the sequentially-consistent expected value of every
	// word: the value of the last completed write in step order. It
	// backs the latest-version and conservation checks with real data.
	shadow []uint64

	// txns records the bus transactions of the last apply, for
	// counterexample rendering and replay validation. The records are
	// pooled: the next apply resets and reuses them (see newTxn), so a
	// caller that keeps one past that must Clone it.
	txns []*bus.Transaction

	// arcs collects (pre-state, op) → outcome for the acting cache
	// when opts.RecordArcs is set.
	arcs map[arcKey]string

	// universe is the fixed block set, precomputed.
	universe []addr.Block

	// Reused scratch buffers: restore/encode run once per explored
	// transition, so they must not allocate.
	lay        keyLayout
	keyBuf     []uint64
	dirTargets []int // a directory lookup's holders
	actsBuf    []Action
	touched    []addr.Block // stepBlocks' result

	// canon holds the processor-symmetry canonicalizer (nil when
	// Options.Symmetry is off).
	canon *canonizer

	// checker is the invariant suite with its scratch, run once per
	// explored transition.
	checker *coherence.Checker

	// journal, when attached (scopeChecks), records the block of every
	// write to what the invariants read or the state key encodes since
	// the last restore, shadow words and directory bits aside (see
	// stepBlocks).
	journal *addr.Journal
}

// keyLayout fixes the packed binary state-key format. Keys are
// fixed-width []uint64 vectors laid out block-major; per block:
//
//	ctrlWords words   one 16-bit lane per cache: present(bit 0) | state<<1
//	procs*words words cache line data, cache-major (zero when absent)
//	words words       memory block data
//	1 word            locked(bit 0) | waiter(bit 1) | owner<<2 | dirmask<<8
//	words words       shadow (sequentially consistent reference) data
//
// Fixed width makes keys comparable word-wise, hashable in one pass,
// and storable in fixed-size arena records with no per-state
// allocation.
type keyLayout struct {
	procs, blocks, words int
	ctrlWords            int // per block
	blockStride          int // words per block section
	total                int // words per key
}

func makeKeyLayout(procs, blocks, words int) keyLayout {
	l := keyLayout{procs: procs, blocks: blocks, words: words}
	l.ctrlWords = (procs + 3) / 4
	l.blockStride = l.ctrlWords + words*(procs+2) + 1
	l.total = blocks * l.blockStride
	return l
}

type arcKey struct {
	state protocol.State
	op    protocol.Op
}

// stepResult is the observable outcome of one action.
type stepResult struct {
	denied  bool // the request was refused (block locked elsewhere)
	didRead bool
	value   uint64 // value returned by a read-class op
	addr    addr.Addr
}

// complete, privilege, evictOf, and isDirty consult the compiled
// table when present, falling back to the protocol methods (mutants).
func (m *machine) complete(st protocol.State, op protocol.Op, t *bus.Transaction) protocol.CompleteResult {
	if m.tab != nil {
		return m.tab.Complete(st, op, t)
	}
	return m.proto.Complete(st, op, t)
}

func (m *machine) privilege(st protocol.State) protocol.Priv {
	if m.tab != nil {
		return m.tab.Privilege(st)
	}
	return m.proto.Privilege(st)
}

func (m *machine) evictOf(st protocol.State) protocol.Evict {
	if m.tab != nil {
		return m.tab.Evict(st)
	}
	return m.proto.Evict(st)
}

func (m *machine) isDirty(st protocol.State) bool {
	if m.tab != nil {
		return m.tab.IsDirty(st)
	}
	return m.proto.IsDirty(st)
}

const maxPhases = 16

func newMachine(opts Options) *machine {
	geom := addr.MustGeometry(opts.Words, opts.Words)
	m := &machine{
		opts:   opts,
		proto:  opts.Protocol,
		tab:    protocol.TableFor(opts.Protocol), // nil for mutants: they stay on methods
		feats:  opts.Protocol.Features(),
		geom:   geom,
		mem:    memory.New(geom),
		shadow: make([]uint64, opts.Blocks*opts.Words),
		arcs:   make(map[arcKey]string),
	}
	// The checker never reads simulation counters; disabling them takes
	// the per-probe/per-snoop counting off the exploration hot path.
	m.mem.Counts.Disable()
	for i := 0; i < opts.Procs; i++ {
		c := cache.New(i, geom, m.proto, cache.Config{Sets: 1, Ways: opts.Blocks}, m.mem)
		c.Counts.Disable()
		m.caches = append(m.caches, c)
	}
	m.universe = make([]addr.Block, opts.Blocks)
	for i := range m.universe {
		m.universe[i] = addr.Block(i)
	}
	m.lay = makeKeyLayout(opts.Procs, opts.Blocks, opts.Words)
	m.keyBuf = make([]uint64, m.lay.total)
	if opts.Symmetry {
		m.canon = newCanonizer(m.lay)
	}
	m.checker = coherence.NewChecker(m.proto)
	return m
}

// actions enumerates every enabled action from the machine's current
// state, in a deterministic order, into a per-machine reused buffer
// valid until the next call.
func (m *machine) actions() []Action {
	out := m.actsBuf[:0]
	hwLock := m.feats.HardwareLock
	for p := 0; p < m.opts.Procs; p++ {
		c := m.caches[p]
		for b := 0; b < m.opts.Blocks; b++ {
			blk := addr.Block(b)
			st := c.State(blk)
			for w := 0; w < m.opts.Words; w++ {
				out = append(out,
					Action{Proc: p, Op: protocol.OpRead, Block: uint64(b), Word: w},
					Action{Proc: p, Op: protocol.OpWrite, Block: uint64(b), Word: w, Value: uint64(p + 1)})
			}
			if m.feats.WriteNoFetch {
				out = append(out, Action{Proc: p, Op: protocol.OpWriteBlock, Block: uint64(b), Value: uint64(p + 1 + m.opts.Procs)})
			}
			if hwLock {
				out = append(out, Action{Proc: p, Op: protocol.OpLock, Block: uint64(b)})
				// Unlock is a legal program action only for the lock
				// holder — by cache state, or by the memory lock tag a
				// purge left behind (Section E.3).
				tag := m.mem.GetLockTag(blk)
				if m.privilege(st) == protocol.PrivLock || (tag.Locked && tag.Owner == p) {
					out = append(out, Action{Proc: p, Op: protocol.OpUnlock, Block: uint64(b), Value: uint64(p + 1)})
				}
			}
			if st != protocol.Invalid {
				out = append(out, Action{Proc: p, Kind: ActEvict, Block: uint64(b)})
			}
		}
	}
	m.actsBuf = out
	return out
}

// apply executes one action atomically, mirroring the engine's
// serveTxn/applyCompletion sequence (internal/sim/bustxn.go) without
// the clock: the step's bus transactions broadcast to the other
// caches, memory responds, and the protocol's Complete installs the
// outcome; multi-phase operations run to completion with the bus
// logically held between phases.
func (m *machine) apply(a Action) (stepResult, error) {
	m.txns = m.txns[:0]
	if a.Kind == ActEvict {
		m.evictBlock(a)
		return stepResult{}, nil
	}
	c := m.caches[a.Proc]
	blk := addr.Block(a.Block)
	at := m.geom.Base(blk) + addr.Addr(a.Word)
	op := a.Op

	pre := c.State(blk)
	// Reprobe is Probe without statistics; the checker keeps no counts.
	r := c.Reprobe(op, at)
	m.recordArc(pre, op, r)
	if r.Hit {
		return m.finish(a, c, at, op), nil
	}
	for phase := 0; ; phase++ {
		if phase >= maxPhases {
			return stepResult{}, fmt.Errorf("mcheck: %s under %s exceeded %d bus phases (livelocked operation)",
				a, m.proto.Name(), maxPhases)
		}
		if m.needsFrame(r.Cmd) {
			if v := c.PrepareFill(blk); v.Needed {
				m.evictVictim(c, v)
			}
		}
		t := m.buildTxn(a, c, at, op, r)
		m.broadcast(t)
		m.mem.Respond(t)
		if m.feats.PartialBroadcast && !t.Lines.Locked {
			switch t.Cmd {
			case bus.Read:
				m.mem.Dir.Add(blk, a.Proc)
			case bus.ReadX, bus.Upgrade, bus.WriteNoFetch:
				m.mem.Dir.SetSole(blk, a.Proc)
			}
		}
		cres := m.complete(c.State(blk), op, t)
		if cres.BusyWait {
			// Denied: the cache would arm its busy-wait register and
			// the processor would park. The model leaves the operation
			// unperformed; a retry is simply another step.
			return stepResult{denied: true, addr: at}, nil
		}
		m.applyCompletion(a, c, op, t, cres)
		if cres.Done {
			return m.finish(a, c, at, op), nil
		}
		// Multi-phase operation (Goodman's fetch-then-write-through,
		// Dragon's fetch-then-update): re-probe with the bus held.
		r = c.Reprobe(op, at)
		if r.Hit {
			return m.finish(a, c, at, op), nil
		}
	}
}

// recordArc notes the acting cache's (pre-state, op) → outcome in
// Figure 10 notation: "->X" for a silent (hit) transition to state X,
// "bus:cmd" (plus "+lock" under lock intent) for a bus request.
func (m *machine) recordArc(pre protocol.State, op protocol.Op, r protocol.ProcResult) {
	if !m.opts.RecordArcs {
		return
	}
	k := arcKey{state: pre, op: op}
	if _, ok := m.arcs[k]; ok {
		return
	}
	if r.Hit {
		m.arcs[k] = "->" + m.proto.StateName(r.NewState)
		return
	}
	out := "bus:" + r.Cmd.String()
	if r.LockIntent {
		out += "+lock"
	}
	m.arcs[k] = out
}

// needsFrame mirrors sim.System.needsFrame.
func (m *machine) needsFrame(cmd bus.Cmd) bool {
	switch cmd {
	case bus.Read, bus.ReadX, bus.WriteNoFetch:
		return true
	case bus.WriteWord:
		return m.feats.WriteAllocates
	}
	return false
}

// newTxn appends the next pooled transaction record of this apply to
// m.txns, reset, and returns it: an apply issues at most a few records,
// and reusing the previous applies' keeps the step off the allocator.
func (m *machine) newTxn() *bus.Transaction {
	n := len(m.txns)
	if n == cap(m.txns) {
		m.txns = append(m.txns, nil)
	}
	m.txns = m.txns[:n+1]
	if m.txns[n] == nil {
		m.txns[n] = new(bus.Transaction)
	}
	t := m.txns[n]
	t.Reset()
	return t
}

// buildTxn mirrors sim.System.buildTxn, in a pooled record.
func (m *machine) buildTxn(a Action, c *cache.Cache, at addr.Addr, op protocol.Op, r protocol.ProcResult) *bus.Transaction {
	t := m.newTxn()
	t.Cmd = r.Cmd
	t.Block = addr.Block(a.Block)
	t.Addr = at
	t.Requester = a.Proc
	t.LockIntent = r.LockIntent
	t.MemUpdate = r.MemUpdate
	if op == protocol.OpUnlock && (t.Cmd == bus.ReadX || t.Cmd == bus.Upgrade) {
		t.UnlockIntent = true
	}
	switch t.Cmd {
	case bus.WriteWord, bus.UpdateWord:
		t.WordData = a.Value
	}
	return t
}

// broadcast delivers t to every snooping cache — all of them under
// full broadcast, only the directory-recorded holders under a
// partial-broadcast (directory) scheme.
func (m *machine) broadcast(t *bus.Transaction) {
	if m.feats.PartialBroadcast && t.Cmd != bus.Flush {
		m.dirTargets = m.mem.Dir.Members(m.dirTargets[:0], t.Block, t.Requester)
		for _, id := range m.dirTargets {
			m.caches[id].Snoop(t)
		}
		return
	}
	for _, c := range m.caches {
		if c.ID() != t.Requester {
			c.Snoop(t)
		}
	}
}

// applyCompletion mirrors sim.System.applyCompletion: lock-tag
// reclaim, line install/update, with the processor-side data effect
// deferred to finish.
func (m *machine) applyCompletion(a Action, c *cache.Cache, op protocol.Op, t *bus.Transaction, cres protocol.CompleteResult) {
	b := t.Block
	newState := cres.NewState

	// Every fetch by the lock-tag owner reclaims the purged lock into
	// the line (see sim.System.applyCompletion for why).
	switch t.Cmd {
	case bus.Read, bus.ReadX, bus.Upgrade, bus.WriteNoFetch:
		if tag := m.mem.GetLockTag(b); tag.Locked && tag.Owner == a.Proc {
			if lr, ok := m.proto.(protocol.LockReclaimer); ok {
				newState = lr.ReclaimedLockState(tag.Waiter)
			}
			m.mem.SetLockTag(b, memory.LockTag{})
		}
	}

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
				c.Install(b, m.mem.ReadBlock(b), newState)
			} else {
				c.SetState(b, newState)
			}
		}
	default: // Upgrade, UpdateWord, Unlock: the line is present
		if c.State(b) != protocol.Invalid || newState != protocol.Invalid {
			c.SetState(b, newState)
		}
	}
}

// finish applies the processor-side data effect of a completed
// operation, mirroring sim's finishLocal/finishOp.
func (m *machine) finish(a Action, c *cache.Cache, at addr.Addr, op protocol.Op) stepResult {
	res := stepResult{addr: at}
	switch op {
	case protocol.OpRead, protocol.OpReadEx, protocol.OpLock:
		res.value, _ = c.ReadWord(at)
		res.didRead = true
	case protocol.OpWrite, protocol.OpUnlock:
		c.WriteWord(at, a.Value)
	case protocol.OpWriteBlock:
		base := m.geom.Base(addr.Block(a.Block))
		for i := 0; i < m.geom.BlockWords; i++ {
			c.WriteWord(base+addr.Addr(i), a.Value)
		}
	}
	return res
}

// commitShadow records a completed write in the shadow memory (the
// model's sequentially-consistent reference).
func (m *machine) commitShadow(a Action, res stepResult) {
	if a.Kind != ActOp || res.denied || !a.Op.IsWrite() {
		return
	}
	if a.Op == protocol.OpWriteBlock {
		base := int(a.Block) * m.opts.Words
		for i := 0; i < m.opts.Words; i++ {
			m.shadow[base+i] = a.Value
		}
		return
	}
	m.shadow[int(a.Block)*m.opts.Words+a.Word] = a.Value
}

// evictBlock performs the explicit eviction action, mirroring
// sim.System.evict for the chosen victim.
func (m *machine) evictBlock(a Action) {
	c := m.caches[a.Proc]
	blk := addr.Block(a.Block)
	st := c.State(blk)
	if st == protocol.Invalid {
		return
	}
	ev := m.evictOf(st)
	if ev.Writeback {
		m.flush(c, blk, c.DataView(blk))
	}
	if ev.LockPurge {
		m.mem.SetLockTag(blk, memory.LockTag{Locked: true, Owner: c.ID(), Waiter: ev.Waiter})
	}
	if m.feats.PartialBroadcast {
		m.mem.Dir.Remove(blk, c.ID())
	}
	c.Drop(blk)
}

// evictVictim mirrors sim.System.evict for a capacity victim (cannot
// occur with Ways == Blocks, but kept for smaller-cache configs).
func (m *machine) evictVictim(c *cache.Cache, v cache.Victim) {
	if v.Evict.Writeback {
		m.flush(c, v.Block, v.Data)
	}
	if v.Evict.LockPurge {
		m.mem.SetLockTag(v.Block, memory.LockTag{Locked: true, Owner: c.ID(), Waiter: v.Evict.Waiter})
	}
	if m.feats.PartialBroadcast {
		m.mem.Dir.Remove(v.Block, c.ID())
	}
	c.Drop(v.Block)
}

// flush broadcasts cache c's writeback of block blk, carrying a copy
// of data in a pooled record, and lets memory absorb it.
func (m *machine) flush(c *cache.Cache, blk addr.Block, data []uint64) {
	t := m.newTxn()
	t.Cmd = bus.Flush
	t.Block = blk
	t.Addr = m.geom.Base(blk)
	t.Requester = c.ID()
	t.SupplyBlock(data)
	m.broadcast(t)
	m.mem.Respond(t)
}

// scopeChecks attaches a journal to the machine's caches and memory.
// Between two restores it then records every block whose cache frames,
// memory words or lock tag a step wrote, which bounds what the step
// changed: the executor writes shadow words and directory bits only for
// the action's own block (an evicted capacity victim's Drop journals
// it). The expand workers step only from stored states and use the
// bound three ways — restoreBlocks returns to the parent through those
// blocks, successorKey re-encodes only them, and checkBlocks re-checks
// only them. The last is the full check's verdict, message for
// message, because every stored state passed the whole suite (the root
// Open's full check, every other state a scoped check whose unwritten
// blocks its parent had passed), every invariant is per block, and a
// block nothing wrote still passes. Every other machine keeps the full
// sweep.
func (m *machine) scopeChecks() {
	m.journal = new(addr.Journal)
	for _, c := range m.caches {
		c.SetJournal(m.journal)
	}
	m.mem.SetJournal(m.journal)
}

// stepBlocks returns, in ascending order, the blocks journaled since
// the last restore plus a's own block, whose shadow words and
// directory bits the step may have written unjournaled. The slice is a
// copy in a per-machine buffer, valid until the next call: restoreBlocks
// writes to the journal while it walks the blocks.
func (m *machine) stepBlocks(a Action) []addr.Block {
	m.journal.Add(addr.Block(a.Block))
	m.touched = append(m.touched[:0], m.journal.Sorted()...)
	return m.touched
}

// checkInvariants validates the current state over the whole block
// universe.
func (m *machine) checkInvariants(a Action, res stepResult) []string {
	return m.checkBlocks(m.universe, a, res)
}

// checkBlocks runs the invariant suite over the given blocks
// (ascending) of the current state: the shared coherence predicates
// over real caches and memory and the shadow-backed
// latest-version/conservation check, then the read-value check of the
// step that produced the state.
func (m *machine) checkBlocks(blocks []addr.Block, a Action, res stepResult) []string {
	out := m.checker.Check(m.caches, m.mem, blocks)
	for _, b := range blocks {
		owner := m.ownerView(b)
		base := int(b) * m.opts.Words
		for w := 0; w < m.opts.Words; w++ {
			if owner[w] != m.shadow[base+w] {
				out = append(out, fmt.Sprintf(
					"block %d word %d: conservation violated: latest value %d lost (owner/memory holds %d)",
					b, w, m.shadow[base+w], owner[w]))
			}
		}
	}
	return m.appendStaleRead(out, a, res)
}

// appendStaleRead appends the read-value check of step a to out: the
// one check that depends on the transition, not only on the state it
// reached.
func (m *machine) appendStaleRead(out []string, a Action, res stepResult) []string {
	if res.didRead {
		base := int(a.Block) * m.opts.Words
		if want := m.shadow[base+a.Word]; res.value != want {
			out = append(out, fmt.Sprintf(
				"stale read: %s returned %d, latest write in step order is %d", a, res.value, want))
		}
	}
	return out
}

// ownerView returns a read-only view of the authoritative copy of
// block b: the dirty cache copy when one exists, memory otherwise.
func (m *machine) ownerView(b addr.Block) []uint64 {
	for _, c := range m.caches {
		st := c.State(b)
		if st != protocol.Invalid && m.isDirty(st) {
			return c.DataView(b)
		}
	}
	return m.mem.BlockView(b)
}

// --- canonical state encoding -------------------------------------------

// encodeKey serializes the machine's complete behavioral state — cache
// frames (including tag-only invalid frames), memory data, lock tags,
// directory presence, and the shadow memory — into the fixed-width
// binary key described by keyLayout, one block section at a time. The
// returned slice aliases a per-machine buffer reused by the next call
// (and by successorKey).
func (m *machine) encodeKey() []uint64 {
	for _, b := range m.universe {
		m.encodeBlock(m.keyBuf, b)
	}
	return m.keyBuf
}

// successorKey encodes the state a step reached from the state with key
// parent, given the blocks the step wrote (stepBlocks): parent's key
// with only those blocks' sections re-encoded. It shares encodeKey's
// buffer.
func (m *machine) successorKey(parent []uint64, blocks []addr.Block) []uint64 {
	copy(m.keyBuf, parent)
	for _, b := range blocks {
		m.encodeBlock(m.keyBuf, b)
	}
	return m.keyBuf
}

// encodeBlock writes block b's section of the state key into k.
func (m *machine) encodeBlock(k []uint64, b addr.Block) {
	lay := &m.lay
	base := int(b) * lay.blockStride
	clear(k[base : base+lay.ctrlWords])
	pos := base + lay.ctrlWords
	for ci, c := range m.caches {
		if st, data, ok := c.FrameView(b); ok {
			// protocol.State is a small enum (uint16 with the top bit
			// never set), so present|state<<1 fits the 16-bit lane.
			k[base+ci/4] |= (1 | uint64(st)<<1) << uint((ci%4)*16)
			copy(k[pos:pos+lay.words], data)
		} else {
			clear(k[pos : pos+lay.words])
		}
		pos += lay.words
	}
	copy(k[pos:pos+lay.words], m.mem.BlockView(b))
	pos += lay.words
	var lw uint64
	if tag := m.mem.GetLockTag(b); tag.Locked {
		lw = 1 | uint64(tag.Owner)<<2
		if tag.Waiter {
			lw |= 2
		}
	}
	k[pos] = lw | m.mem.Dir.Mask(b)<<8
	pos++
	copy(k[pos:pos+lay.words], m.shadow[int(b)*lay.words:(int(b)+1)*lay.words])
}

// restoreKey re-materializes the machine at an encoded state: it
// clears every cache and restores every block's section.
func (m *machine) restoreKey(k []uint64) {
	if len(k) != m.lay.total {
		panic(fmt.Sprintf("mcheck: state key has %d words, want %d", len(k), m.lay.total))
	}
	for _, c := range m.caches {
		c.Restore(nil)
	}
	m.restoreSections(k, m.universe)
}

// restoreBlocks returns the machine to the encoded state k from a state
// that differs from it at most in the given blocks (ascending), such
// as the blocks a step from k wrote (stepBlocks). It restores only
// their frames, memory words, lock tags, directory entries and shadow
// words — the per-transition path back to the parent, where restoreKey
// is the per-state one. Each cache drops all their frames before
// reinstalling any, so its frames come out in restoreKey's order: the
// other blocks' frames never moved, and the restored ones refill the
// free frames in ascending block order, as Cache.Restore fills them.
// With Ways == Blocks no valid line is ever a victim, so the LRU/FIFO
// ticks a full restore would reset are unobservable.
func (m *machine) restoreBlocks(k []uint64, blocks []addr.Block) {
	for _, c := range m.caches {
		for _, b := range blocks {
			c.RestoreBlock(b, false, protocol.Invalid, nil)
		}
	}
	m.restoreSections(k, blocks)
}

// restoreSections restores the given blocks' sections of k (ascending)
// into a machine whose caches hold no frame for them, and empties the
// journal.
func (m *machine) restoreSections(k []uint64, blocks []addr.Block) {
	lay := &m.lay
	for _, b := range blocks {
		base := int(b) * lay.blockStride
		pos := base + lay.ctrlWords
		for ci, c := range m.caches {
			if lane := (k[base+ci/4] >> uint((ci%4)*16)) & 0xffff; lane&1 != 0 {
				c.RestoreBlock(b, true, protocol.State(lane>>1), k[pos:pos+lay.words])
			}
			pos += lay.words
		}
		m.mem.WriteBlock(b, k[pos:pos+lay.words])
		pos += lay.words
		lw := k[pos]
		pos++
		var tag memory.LockTag
		if lw&1 != 0 {
			tag = memory.LockTag{Locked: true, Owner: int(lw >> 2 & 7), Waiter: lw&2 != 0}
		}
		m.mem.SetLockTag(b, tag)
		m.mem.Dir.Set(b, lw>>8&0xff)
		copy(m.shadow[int(b)*lay.words:(int(b)+1)*lay.words], k[pos:pos+lay.words])
	}
	if m.journal != nil {
		m.journal.Reset()
	}
}

// sortedArcs returns the collected arcs in a deterministic order.
func (m *machine) sortedArcs() []ObservedArc {
	out := make([]ObservedArc, 0, len(m.arcs))
	for k, v := range m.arcs {
		out = append(out, ObservedArc{State: k.state, Op: k.op, Outcome: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].State != out[j].State {
			return out[i].State < out[j].State
		}
		return out[i].Op < out[j].Op
	})
	return out
}
