package mcheck

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cachesync/internal/addr"
	"cachesync/internal/protocol"
)

// The exploration kernel.
//
// Every exploration is one level-synchronized BFS driven by
// RunSharded over session shards: Run is RunSharded over one
// in-process ShardSession, and a fleet check drives remote replicas
// speaking the same ShardPeer protocol over HTTP. Under POR every
// session filters each frontier state's expansion to one block's
// actions (see por.go); the pass is otherwise the same. The visited
// set is partitioned across sessions by state hash (sessionShardOf);
// each session holds the states it owns in a spill store, expands its
// slice of the global frontier with Options.Workers goroutines, and
// mails every newly discovered state — its own included — to the owner
// as a WireCand. The coordinator drives the phases — expand everywhere,
// then absorb everywhere — so the level barrier stretches over the
// network unchanged.
//
// Determinism rests on expressing every tiebreak in intrinsic state
// data. The global frontier at each level is ordered (visited-table
// shard, key); a session's slice is a subsequence of it, and a
// worker's share of the slice is scanned in order, so a transition's
// ordinal (parent table shard, parent key, action index) — WireOrd —
// orders it exactly as one global scan would, however the frontier is
// split across sessions and workers. Duplicate discoveries resolve to
// the least ordinal at the owner (Absorb), which inserts winners in
// (table shard, key) order, so state IDs depend only on the set of
// discovered states; simultaneous violations resolve to the least
// ordinal at the coordinator, which rebuilds the trace by following
// parent pointers across sessions and de-canonicalizes it. The merged
// Result is byte-identical (timing aside) for any session and worker
// count — TestShardedEquivalence in process, and the cluster's
// differential over HTTP.
//
// Every option composes with sharding but MemBudget (spilling is
// per-process), which is rejected for more than one session.

// sessionShardOf maps a state hash to its owning session shard. It
// must stay independent of shardOfHash (which takes the top 6 bits),
// so it folds the low bits.
func sessionShardOf(h uint64, total int) int {
	return int((h ^ h>>17) % uint64(total))
}

// WireAction is Action in a JSON-round-trippable shape (Action's own
// MarshalJSON renders the human trace string, which does not parse
// back).
type WireAction struct {
	Proc  int         `json:"proc"`
	Kind  ActionKind  `json:"kind"`
	Op    protocol.Op `json:"op"`
	Block uint64      `json:"block"`
	Word  int         `json:"word"`
	Value uint64      `json:"value"`
}

func toWire(a Action) WireAction {
	return WireAction{Proc: a.Proc, Kind: a.Kind, Op: a.Op, Block: a.Block, Word: a.Word, Value: a.Value}
}

func fromWire(w WireAction) Action {
	return Action{Proc: w.Proc, Kind: w.Kind, Op: w.Op, Block: w.Block, Word: w.Word, Value: w.Value}
}

// WireOrd is a transition's global tiebreak ordinal: the discovering
// parent's visited-table shard and key (its position in the global
// frontier order) plus the action's index in the parent's full action
// list — also under POR, whose expansion skips other blocks' actions.
type WireOrd struct {
	TShard    int      `json:"tshard"`
	ParentKey []uint64 `json:"pkey"`
	AI        int32    `json:"ai"`
}

func (o WireOrd) compare(p WireOrd) int {
	if c := cmp.Compare(o.TShard, p.TShard); c != 0 {
		return c
	}
	if c := compareKey(o.ParentKey, p.ParentKey); c != 0 {
		return c
	}
	return cmp.Compare(o.AI, p.AI)
}

// WireCand is one newly discovered state in flight to its owning
// session shard. Its owner hashes Key itself: nothing a sender claims
// about the key decides routing or storage.
type WireCand struct {
	Key        []uint64   `json:"key"`
	Ord        WireOrd    `json:"ord"`
	ParentSess int        `json:"psess"`
	Parent     uint64     `json:"parent"` // packed stateID in the parent's session
	Act        WireAction `json:"act"`
}

// ShardOpenReply reports a session's view after seeding.
type ShardOpenReply struct {
	Root           bool     `json:"root"` // this session owns the initial state
	Workers        int      `json:"workers"`
	RootViolations []string `json:"root_violations,omitempty"`
	// Resumed reports that the session restored itself from a
	// checkpoint instead of seeding fresh; Seq is the last absorbed
	// level. A coordinator re-dispatching a dead replica's session
	// verifies Seq against its own progress before trusting the peer.
	Resumed bool  `json:"resumed,omitempty"`
	Seq     int64 `json:"seq,omitempty"`
	// States, Transitions and Frontier are the session's own counts at
	// Seq — states it owns, transitions it expanded, states on its
	// frontier — which the coordinator sums to continue at level Seq+1.
	States      int64 `json:"states,omitempty"`
	Transitions int64 `json:"transitions,omitempty"`
	Frontier    int64 `json:"frontier,omitempty"`
}

// ShardViolation is a violating transition found during expansion.
type ShardViolation struct {
	Ord        WireOrd    `json:"ord"`
	ParentSess int        `json:"psess"`
	Parent     uint64     `json:"parent"`
	Act        WireAction `json:"act"`
	Violations []string   `json:"violations"`
}

// ShardExpandReply is one session's expansion of its frontier slice:
// candidates grouped by destination session shard, plus the least
// violating transition, if any. The candidates alias the session's
// buffers and stay valid until its next Expand; their parent keys, in
// a session that spills, only until its next Absorb seals them.
type ShardExpandReply struct {
	Out         [][]WireCand    `json:"out"`
	Transitions int64           `json:"transitions"`
	Violation   *ShardViolation `json:"violation,omitempty"`
}

// ShardAbsorbReply reports how many mailed candidates were new. Seq
// echoes the absorbed level so a coordinator can detect replays.
type ShardAbsorbReply struct {
	Added int64 `json:"added"`
	Seq   int64 `json:"seq"`
}

// ShardHopReply is one backward step of cross-shard trace rebuilding.
type ShardHopReply struct {
	Root       bool       `json:"root"`
	Act        WireAction `json:"act"`
	ParentSess int        `json:"psess"`
	Parent     uint64     `json:"parent"`
}

// ShardPeer is one session shard as the coordinator sees it — either
// a local ShardSession or a remote replica spoken to over HTTP.
type ShardPeer interface {
	Open() (*ShardOpenReply, error)
	Expand() (*ShardExpandReply, error)
	// Absorb folds one level's candidates in; seq is the level number
	// (1-based), making retries after a session re-dispatch idempotent.
	Absorb(seq int64, cands []WireCand) (*ShardAbsorbReply, error)
	TraceHop(id uint64) (*ShardHopReply, error)
	Close() error
}

// ShardSession is one session shard's state: the slice of the visited
// set it owns, its frontier, and one machine per expand worker.
type ShardSession struct {
	o       Options
	self    int
	total   int
	kw      int
	workers []*expandWorker
	merged  [][]WireCand // per destination: the workers' outboxes joined
	// porRoot is the canonical initial key under POR (nil otherwise),
	// set by Open: expandBlock compares frontier keys against it.
	porRoot []uint64

	st    *spillStore // nil until Open
	tmp   string      // spill directory owned by the session (no checkpointing)
	front []stateID

	// Absorb scratch, reused across levels.
	hashes     []uint64
	order      []int32
	frontStart []int
	wins       []int // per table shard: new states this absorb

	// seq counts absorbed levels; transitions counts the transitions
	// expanded through level seq, and pending those of the last Expand,
	// committed by the Absorb that follows it (-1: no Expand since the
	// last Absorb or since Open).
	seq, transitions, pending int64

	// Checkpointing (checkpoint.go): with ck set, the session
	// checkpoints itself after Open and after every Absorb, so Run can
	// resume and a coordinator can re-dispatch the session to another
	// replica when this one dies.
	ck     *checkpointer
	resume bool
}

// expandWorker is one expand goroutine's state, reused across levels:
// its machine, its intra-level duplicate filter (whose arena holds the
// keys of the candidates it mails), and its outboxes per destination.
type expandWorker struct {
	m           *machine
	seen        *keySet
	sc          *probeScratch
	out         [][]WireCand
	transitions int64
	// suiteRuns counts the invariant-suite runs of the session's life:
	// one per successor new to the worker (see expand).
	suiteRuns int64
	// The worker's least violating transition: frontier index vi (-1
	// when none), action index vj.
	vi, vj int
	vact   Action
	viols  []string
	err    error
}

// MaxShards bounds the session count of one sharded exploration, far
// above any fleet (cachesyncc fans a check out to at most 16). A
// session allocates an outbox per session for each expand worker, so
// the bound also caps what one /v1/shard/open body can make a replica
// allocate.
const MaxShards = 256

// NewShardSession builds session shard self of total for one
// exploration; total is at most MaxShards. The configuration must be
// identical on every shard. A session with a MemBudget spills to a
// temporary directory that Close removes.
func NewShardSession(opts Options, self, total int) (*ShardSession, error) {
	o := opts.withDefaults()
	if err := validate(o); err != nil {
		return nil, err
	}
	if o.MemBudget > 0 && total > 1 {
		return nil, fmt.Errorf("mcheck: MemBudget does not compose with sharded exploration (spilling is per-process)")
	}
	if total > MaxShards {
		return nil, fmt.Errorf("mcheck: %d shards exceed the limit of %d", total, MaxShards)
	}
	if total < 1 || self < 0 || self >= total {
		return nil, fmt.Errorf("mcheck: shard %d/%d out of range", self, total)
	}
	return newSession(o, self, total), nil
}

// newSession builds a session from validated options.
func newSession(o Options, self, total int) *ShardSession {
	s := &ShardSession{o: o, self: self, total: total, pending: -1}
	for range o.Workers {
		m := newMachine(o)
		m.scopeChecks()
		s.workers = append(s.workers, &expandWorker{
			m: m, seen: newKeySet(m.lay.total), sc: newProbeScratch(m.lay.total),
			out: make([][]WireCand, total),
		})
	}
	s.kw = s.workers[0].m.lay.total
	s.merged = make([][]WireCand, total)
	s.frontStart = make([]int, shardCount)
	s.wins = make([]int, shardCount)
	return s
}

func (s *ShardSession) notOpen() error {
	return fmt.Errorf("mcheck: shard %d: session not open", s.self)
}

// Open seeds the initial state into its owning session and reports
// root invariant violations. With a checkpoint directory set and
// resume requested, an existing checkpoint is restored instead of
// seeding — Run's resume, and the re-dispatch path after a replica
// death; without resume, Open first clears whatever checkpoint a
// crashed earlier session left in the directory.
func (s *ShardSession) Open() (*ShardOpenReply, error) {
	if s.st != nil {
		return nil, fmt.Errorf("mcheck: shard %d: session already open", s.self)
	}
	dir := ""
	if s.ck != nil {
		dir = s.ck.dir
	} else if s.o.MemBudget > 0 {
		tmp, err := os.MkdirTemp("", "mcheck-spill-")
		if err != nil {
			return nil, fmt.Errorf("mcheck: spill dir: %w", err)
		}
		s.tmp, dir = tmp, tmp
	}
	s.st = newSpillStore(s.kw, dir, s.o.MemBudget, len(s.workers))
	// Only a checkpoint's runs outlive the process: a private spill
	// directory is removed by Close, and nothing reads it after a crash.
	s.st.durable = s.ck != nil

	m := s.workers[0].m
	root := m.encodeKey()
	if m.canon != nil {
		// The initial state is fully symmetric, so canonicalization is
		// the identity; run it anyway so any future asymmetric initial
		// state is still handled correctly.
		root, _ = m.canon.canonicalize(root)
	}
	if s.o.POR {
		s.porRoot = slices.Clone(root)
	}
	h := hashKey(root)
	reply := &ShardOpenReply{Workers: s.o.Workers, Root: sessionShardOf(h, s.total) == s.self}
	if v := m.checkInvariants(Action{}, stepResult{}); len(v) > 0 {
		reply.RootViolations = v
		return reply, nil
	}
	if s.ck != nil {
		if !s.resume {
			s.ck.clear()
		} else if ok, err := s.ck.load(s); err != nil {
			return nil, err
		} else if ok {
			reply.Resumed = true
			reply.Seq = s.seq
			reply.States = s.st.states()
			reply.Transitions = s.transitions
			reply.Frontier = int64(len(s.front))
			return reply, nil
		}
	}
	if reply.Root {
		ts := shardOfHash(h)
		s.front = append(s.front, packID(ts, s.st.insert(ts, root, h, edge{parent: noParent})))
		reply.States, reply.Frontier = 1, 1
		if s.o.stateHook != nil {
			s.o.stateHook(root)
		}
	}
	if s.ck != nil {
		clear(s.frontStart)
		if err := s.ck.save(s); err != nil {
			return nil, err
		}
	}
	return reply, nil
}

// Expand walks the session's frontier slice — the global frontier
// order restricted to owned states — with its workers claiming states
// in order from a shared cursor, and returns the discovered candidates
// routed by owner. Each worker drops self-loops and keys it already
// handled this level before probing the visited store, and probes only
// for states this session owns; duplicates across workers and
// sessions are resolved by Absorb.
func (s *ShardSession) Expand() (*ShardExpandReply, error) {
	if s.st == nil {
		return nil, s.notOpen()
	}
	ctx := s.o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	used := s.workers[:max(1, min(len(s.workers), len(s.front)))]
	var cursor int64 = -1
	var wg sync.WaitGroup
	for _, w := range used {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.expand(s, ctx, &cursor)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	reply := &ShardExpandReply{Out: used[0].out}
	var best *expandWorker
	for _, w := range used {
		if w.err != nil {
			return nil, fmt.Errorf("mcheck: shard %d: visited-store probe: %w", s.self, w.err)
		}
		reply.Transitions += w.transitions
		if w.vi >= 0 && (best == nil || w.vi < best.vi || w.vi == best.vi && w.vj < best.vj) {
			best = w
		}
	}
	if len(used) > 1 {
		for d := range s.merged {
			clear(s.merged[d][:cap(s.merged[d])])
			s.merged[d] = s.merged[d][:0]
			for _, w := range used {
				s.merged[d] = append(s.merged[d], w.out[d]...)
			}
		}
		reply.Out = s.merged
	}
	if best != nil {
		id := s.front[best.vi]
		reply.Violation = &ShardViolation{
			Ord:        WireOrd{TShard: id.shard(), ParentKey: s.st.key(id), AI: int32(best.vj)},
			ParentSess: s.self, Parent: uint64(id), Act: toWire(best.vact), Violations: best.viols,
		}
	}
	s.pending = reply.Transitions
	return reply, nil
}

// expand is one worker's share of a level: it claims frontier states
// in increasing order until the cursor passes the end or the context
// is canceled (polled once per state — cheap next to its expansion,
// prompt enough that a deadline aborts a deep level mid-flight).
//
// A transition touches only what its step changed: the machine is
// restored once per frontier state, and before each later action only
// the blocks the previous step wrote are restored (restoreBlocks) —
// all of them after a step whose apply failed, which may have left any
// state. The successor key is the parent's with those blocks
// re-encoded; one equal to the parent before canonicalization is a
// self-loop, with no canonicalization and no hash. The invariant suite
// runs only on a successor new to the worker: not the parent, not in
// its duplicate filter this level, not in the session's visited store.
// Each of those passed the suite when first reached (only clean
// successors are kept or mailed, and the root passed Open's full
// check); every input of the suite is in the key, and the suite is
// permutation-symmetric, so a known successor would pass again. It
// gets only the stale-read check, the one check that depends on the
// transition. A successor another session owns cannot be probed here,
// so it is checked unless the filter holds it.
func (w *expandWorker) expand(s *ShardSession, ctx context.Context, cursor *int64) {
	w.seen.reset()
	// Drop the previous level's candidates past the new length too: the
	// keys they alias would otherwise pin key arrays the store and the
	// filter have since outgrown.
	for d := range w.out {
		clear(w.out[d][:cap(w.out[d])])
		w.out[d] = w.out[d][:0]
	}
	w.transitions, w.vi, w.viols, w.err = 0, -1, nil, nil
	m := w.m
	for {
		i := int(atomic.AddInt64(cursor, 1))
		if i >= len(s.front) || ctx.Err() != nil {
			return
		}
		id := s.front[i]
		enc := s.st.key(id)
		m.restoreKey(enc)
		only := s.expandBlock(enc)
		// wrote lists the blocks the last step wrote (nil: the machine
		// is at enc); applyFailed marks a step whose apply panicked or
		// livelocked.
		var wrote []addr.Block
		applyFailed := false
		for j, a := range m.actions() {
			if only >= 0 && a.Block != uint64(only) {
				continue
			}
			if applyFailed {
				m.restoreKey(enc)
			} else if wrote != nil {
				m.restoreBlocks(enc, wrote)
			}
			w.transitions++
			sr, v := m.applyStep(a)
			if applyFailed = v != nil; applyFailed {
				w.fail(i, j, a, v)
				continue
			}
			wrote = m.stepBlocks(a)
			nk := m.successorKey(enc, wrote)
			loop := equalKey(nk, enc)
			if !loop && m.canon != nil {
				nk, _ = m.canon.canonicalize(nk)
				loop = equalKey(nk, enc)
			}
			if loop {
				// Self-loop in the (possibly quotiented) state graph.
				if v := m.appendStaleRead(nil, a, sr); v != nil {
					w.fail(i, j, a, v)
				}
				continue
			}
			h := hashKey(nk)
			dest := sessionShardOf(h, s.total)
			// The filter comes before the visited probe: a key this
			// worker already handled this level never needs a second
			// probe, which matters once probes can touch sealed runs on
			// disk.
			ki, slot := w.seen.find(nk, h)
			if ki < 0 && dest == s.self {
				ok, err := s.st.contains(shardOfHash(h), nk, h, w.sc)
				if err != nil {
					w.err = err
					return
				}
				if ok {
					ki = w.seen.insert(nk, h, slot)
				}
			}
			if ki >= 0 {
				if v := m.appendStaleRead(nil, a, sr); v != nil {
					w.fail(i, j, a, v)
				}
				continue
			}
			w.suiteRuns++
			if v := m.checkStep(wrote, a, sr); len(v) > 0 {
				w.fail(i, j, a, v)
				continue
			}
			w.out[dest] = append(w.out[dest], WireCand{
				Key:        w.seen.key(w.seen.insert(nk, h, slot)),
				Ord:        WireOrd{TShard: id.shard(), ParentKey: enc, AI: int32(j)},
				ParentSess: s.self, Parent: uint64(id), Act: toWire(a),
			})
		}
	}
}

// fail records the violating transition (frontier index i, action
// index j) unless the worker has one: states are claimed in increasing
// order, so the worker's first violation is its least.
func (w *expandWorker) fail(i, j int, a Action, v []string) {
	if w.vi < 0 {
		w.vi, w.vj, w.vact, w.viols = i, j, a, v
	}
}

// suiteRuns sums the invariant-suite runs of the session's workers.
func (s *ShardSession) suiteRuns() int64 {
	var n int64
	for _, w := range s.workers {
		n += w.suiteRuns
	}
	return n
}

// expandBlock is POR's expansion filter: the block whose key section
// differs from the root's, whose actions alone a frontier state with
// this key expands, or -1 to expand every action — the root's, and
// every state's without POR. The key is block-major (keyLayout), so
// this is a word compare per block section.
func (s *ShardSession) expandBlock(key []uint64) int {
	if s.porRoot == nil {
		return -1
	}
	stride := s.workers[0].m.lay.blockStride
	for lo := 0; lo < len(key); lo += stride {
		if !equalKey(key[lo:lo+stride], s.porRoot[lo:lo+stride]) {
			return lo / stride
		}
	}
	return -1
}

// frontierTransitions counts the transitions an Expand of the current
// frontier takes, without stepping any of them.
func (s *ShardSession) frontierTransitions() int64 {
	m := s.workers[0].m
	var n int64
	for _, id := range s.front {
		key := s.st.key(id)
		m.restoreKey(key)
		only := s.expandBlock(key)
		for _, a := range m.actions() {
			if only >= 0 && a.Block != uint64(only) {
				continue
			}
			n++
		}
	}
	return n
}

// Absorb folds the level's candidates owned by this session into its
// visited slice: per state the least-ordinal discoverer wins, new
// states insert in (table shard, key) order, and they become the next
// frontier slice. seq is the level number: a retry of the last
// absorbed level (after a coordinator re-dispatched this session)
// returns the recorded reply without reapplying; anything else out of
// order is an error. Candidates may come from any peer over HTTP, so
// each one is checked — key width, routing by the key's own hash, a
// parent in a real session, an action the model can take — before
// anything is stored: a rejected absorb leaves the session as it was.
func (s *ShardSession) Absorb(seq int64, cands []WireCand) (*ShardAbsorbReply, error) {
	if s.st == nil {
		return nil, s.notOpen()
	}
	if seq == s.seq && seq > 0 {
		return &ShardAbsorbReply{Added: int64(len(s.front)), Seq: s.seq}, nil
	}
	if seq != s.seq+1 {
		return nil, fmt.Errorf("mcheck: shard %d: absorb seq %d, session at %d", s.self, seq, s.seq)
	}
	if s.pending < 0 {
		// The level was expanded before this session was opened: a
		// coordinator re-dispatched it between Expand and Absorb.
		s.pending = s.frontierTransitions()
	}
	hs := s.hashes[:0]
	var bounds [shardCount + 1]int // bounds[ts+1]: candidates in table shards ≤ ts
	for i := range cands {
		c := &cands[i]
		if len(c.Key) != s.kw || len(c.Ord.ParentKey) != s.kw {
			return nil, fmt.Errorf("mcheck: shard %d: candidate key width mismatch", s.self)
		}
		h := hashKey(c.Key)
		if sessionShardOf(h, s.total) != s.self {
			return nil, fmt.Errorf("mcheck: shard %d: misrouted candidate", s.self)
		}
		if c.ParentSess < 0 || c.ParentSess >= s.total || stateID(c.Parent) == noParent {
			return nil, fmt.Errorf("mcheck: shard %d: candidate parent %d/%#x out of range", s.self, c.ParentSess, c.Parent)
		}
		if a := c.Act; a.Proc < 0 || a.Proc >= s.o.Procs || a.Block >= uint64(s.o.Blocks) ||
			a.Word < 0 || a.Word >= s.o.Words || a.Kind > ActEvict {
			return nil, fmt.Errorf("mcheck: shard %d: candidate action %+v outside the model", s.self, a)
		}
		hs = append(hs, h)
		bounds[shardOfHash(h)+1]++
	}
	s.hashes = hs
	// Bucket the candidates by table shard; each shard is then ordered,
	// probed and filled independently, by the session's workers.
	for ts := range shardCount {
		bounds[ts+1] += bounds[ts]
	}
	order := slices.Grow(s.order[:0], len(cands))[:len(cands)]
	next := bounds
	for i, h := range hs {
		ts := shardOfHash(h)
		order[next[ts]] = int32(i)
		next[ts]++
	}
	s.order = order
	// Sorted by (key, ordinal), the first candidate of each key is its
	// least-ordinal discoverer; it wins unless the state is already
	// visited. Every shard is probed before any is filled, so a failed
	// disk read stores nothing.
	err := s.eachShard(func(w *expandWorker, ts int) error {
		b := order[bounds[ts]:bounds[ts+1]]
		slices.SortFunc(b, func(x, y int32) int {
			if c := compareKey(cands[x].Key, cands[y].Key); c != 0 {
				return c
			}
			return cands[x].Ord.compare(cands[y].Ord)
		})
		win, prev := b[:0], []uint64(nil)
		for _, i := range b {
			if prev != nil && equalKey(prev, cands[i].Key) {
				continue
			}
			prev = cands[i].Key
			visited, err := s.st.contains(ts, cands[i].Key, hs[i], w.sc)
			if err != nil {
				return fmt.Errorf("mcheck: shard %d: visited-store probe: %w", s.self, err)
			}
			if !visited {
				win = append(win, i)
			}
		}
		s.wins[ts] = len(win)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ts := range s.frontStart {
		s.frontStart[ts] = s.st.count(ts)
	}
	s.eachShard(func(_ *expandWorker, ts int) error {
		for _, i := range order[bounds[ts] : bounds[ts]+s.wins[ts]] {
			c := &cands[i]
			s.st.insert(ts, c.Key, hs[i], edge{
				parent: stateID(c.Parent), psess: int32(c.ParentSess), act: fromWire(c.Act),
			})
		}
		return nil
	})
	s.front = s.front[:0]
	for ts, n := range s.wins {
		for k := range n {
			s.front = append(s.front, packID(ts, s.frontStart[ts]+k))
		}
	}
	if s.o.stateHook != nil {
		for _, id := range s.front {
			s.o.stateHook(s.st.key(id))
		}
	}
	s.seq = seq
	s.transitions += s.pending
	s.pending = -1
	// Seal over-budget shards now that the frontier boundary is known,
	// then checkpoint the level; without a checkpoint, compacted-away
	// runs are dropped at once.
	if err := s.st.sealOver(s.frontStart); err != nil {
		return nil, err
	}
	if s.ck != nil {
		if err := s.ck.save(s); err != nil {
			return nil, err
		}
	} else {
		s.st.dropObsolete()
	}
	return &ShardAbsorbReply{Added: int64(len(s.front)), Seq: seq}, nil
}

// eachShard runs fn once per visited-table shard, spread over the
// session's workers — worker g takes the shards ts with ts%workers == g,
// the shards whose entries newSpillStore keeps in arena g, so each
// shard's store and scratch and each arena are touched by one
// goroutine only — and returns the first error.
func (s *ShardSession) eachShard(fn func(w *expandWorker, ts int) error) error {
	errs := make([]error, len(s.workers))
	var wg sync.WaitGroup
	for g, w := range s.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ts := g; ts < shardCount && errs[g] == nil; ts += len(s.workers) {
				errs[g] = fn(w, ts)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TraceHop resolves one owned state to its discovering action and
// parent, for cross-shard counterexample reconstruction.
func (s *ShardSession) TraceHop(id uint64) (*ShardHopReply, error) {
	if s.st == nil {
		return nil, s.notOpen()
	}
	sid := stateID(id)
	if sid.shard() >= shardCount || sid.index() >= s.st.count(sid.shard()) {
		return nil, fmt.Errorf("mcheck: shard %d: unknown state %#x", s.self, id)
	}
	e, err := s.st.edgeOf(sid, s.workers[0].sc)
	if err != nil {
		return nil, err
	}
	return &ShardHopReply{
		Root: e.parent == noParent, Act: toWire(e.act),
		ParentSess: int(e.psess), Parent: uint64(e.parent),
	}, nil
}

// Close releases the session's visited store: its open run files and
// the temporary spill directory, if it made one.
func (s *ShardSession) Close() error {
	if s.st != nil {
		s.st.close()
	}
	if s.tmp != "" {
		os.RemoveAll(s.tmp)
		s.tmp = ""
	}
	return nil
}

// RunSharded explores opts across the given session shards and merges
// the per-level results into the Result a single-process Run of the
// same options would produce (timing fields aside). The peers must
// have been created for this configuration with matching (self,
// total) indices; RunSharded calls Open on each, and continues from
// the level they report when they resumed from checkpoints.
func RunSharded(opts Options, peers []ShardPeer) (*Result, error) {
	o := opts.withDefaults()
	if err := validate(o); err != nil {
		return nil, err
	}
	if len(peers) < 1 {
		return nil, fmt.Errorf("mcheck: no shard peers")
	}
	return explore(o, peers)
}

// explore is the kernel's level loop.
func explore(o Options, peers []ShardPeer) (*Result, error) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res := &Result{
		Protocol: o.Protocol.Name(),
		Procs:    o.Procs, Blocks: o.Blocks, Words: o.Words,
		Depth: o.Depth, Workers: o.Workers, Symmetry: o.Symmetry, POR: o.POR,
	}
	finalize := func() *Result {
		res.Elapsed = time.Since(start)
		if s := res.Elapsed.Seconds(); s > 0 {
			res.StatesPerSec = float64(res.States) / s
		}
		return res
	}

	var seq, frontier int64
	rooted := false
	for i, p := range peers {
		reply, err := p.Open()
		if err != nil {
			return nil, fmt.Errorf("mcheck: shard %d open: %w", i, err)
		}
		if i == 0 {
			if reply.Workers > 0 {
				res.Workers = reply.Workers
			}
			if len(reply.RootViolations) > 0 {
				res.Counterexample = &Counterexample{Violations: reply.RootViolations}
				res.States = 1
				return finalize(), nil
			}
			seq = reply.Seq
		} else if reply.Seq != seq {
			return nil, fmt.Errorf("mcheck: shard %d opened at level %d, shard 0 at %d", i, reply.Seq, seq)
		}
		rooted = rooted || reply.Root
		res.States += reply.States
		res.Transitions += reply.Transitions
		frontier += reply.Frontier
	}
	if !rooted {
		return nil, fmt.Errorf("mcheck: no shard owns the initial state")
	}
	res.DepthReached = int(seq)
	// A level that reached MaxStates ends the run; a resume past it
	// explores nothing more.
	res.Truncated = seq > 0 && res.States >= int64(o.MaxStates)
	statesAtStart := res.States

	var viol *ShardViolation
	expands := make([]*ShardExpandReply, len(peers))
	errs := make([]error, len(peers))
	// inbox gathers one destination's candidates from every session; the
	// destinations absorb one after another, so one buffer serves them
	// all.
	var inbox []WireCand
	for depth := int(seq) + 1; depth <= o.Depth && frontier > 0 && !res.Truncated; depth++ {
		canceled := func() error {
			return fmt.Errorf("mcheck: exploration canceled at depth %d after %d states: %w",
				depth, res.States, ctx.Err())
		}
		if ctx.Err() != nil {
			return nil, canceled()
		}
		var wg sync.WaitGroup
		for i, p := range peers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				expands[i], errs[i] = p.Expand()
			}()
		}
		wg.Wait()
		if ctx.Err() != nil {
			return nil, canceled()
		}
		for i, err := range errs {
			if err == nil && len(expands[i].Out) != len(peers) {
				err = fmt.Errorf("reply routes to %d shards, want %d", len(expands[i].Out), len(peers))
			}
			if err != nil {
				return nil, fmt.Errorf("mcheck: shard %d expand at depth %d: %w", i, depth, err)
			}
		}
		for _, er := range expands {
			res.Transitions += er.Transitions
			if v := er.Violation; v != nil && (viol == nil || v.Ord.compare(viol.Ord) < 0) {
				viol = v
			}
		}
		if viol != nil {
			trace, err := rebuildShardTrace(peers, viol)
			if err != nil {
				return nil, err
			}
			viols := viol.Violations
			if o.Symmetry {
				// Stored actions live in canonical frames; rewrite them
				// into one executable run and recompute the violations so
				// their messages name the actual processor indices.
				dtrace, dviols := decanonicalizeTrace(o, trace)
				trace = dtrace
				if len(dviols) > 0 {
					viols = dviols
				}
			}
			res.Counterexample = &Counterexample{Trace: trace, Violations: viols}
			res.DepthReached = depth
			break
		}

		frontier = 0
		for d, p := range peers {
			in := expands[0].Out[d]
			if len(peers) > 1 {
				inbox = inbox[:0]
				for _, er := range expands {
					inbox = append(inbox, er.Out[d]...)
				}
				in = inbox
			}
			reply, err := p.Absorb(int64(depth), in)
			if err != nil {
				return nil, fmt.Errorf("mcheck: shard %d absorb at depth %d: %w", d, depth, err)
			}
			frontier += reply.Added
		}
		res.States += frontier
		res.DepthReached = depth
		res.Truncated = res.States >= int64(o.MaxStates)
		if o.Progress != nil {
			info := ProgressInfo{Depth: depth, States: res.States, Transitions: res.Transitions}
			if s := time.Since(start).Seconds(); s > 0 {
				info.StatesPerSec = float64(res.States-statesAtStart) / s
			}
			o.Progress(info)
		}
	}

	res.Exhausted = res.Counterexample == nil && !res.Truncated && frontier == 0
	return finalize(), nil
}

// rebuildShardTrace follows parent pointers from the violating
// transition back to the root, hopping between session shards.
func rebuildShardTrace(peers []ShardPeer, viol *ShardViolation) ([]Action, error) {
	var rev []Action
	sess, id := viol.ParentSess, viol.Parent
	for {
		if sess < 0 || sess >= len(peers) {
			return nil, fmt.Errorf("mcheck: trace walks into unknown shard %d", sess)
		}
		hop, err := peers[sess].TraceHop(id)
		if err != nil {
			return nil, fmt.Errorf("mcheck: shard %d trace hop: %w", sess, err)
		}
		if hop.Root {
			break
		}
		rev = append(rev, fromWire(hop.Act))
		sess, id = hop.ParentSess, hop.Parent
		if len(rev) > 1<<16 {
			return nil, fmt.Errorf("mcheck: trace rebuild did not reach the root")
		}
	}
	trace := make([]Action, 0, len(rev)+1)
	for i := len(rev) - 1; i >= 0; i-- {
		trace = append(trace, rev[i])
	}
	return append(trace, fromWire(viol.Act)), nil
}
