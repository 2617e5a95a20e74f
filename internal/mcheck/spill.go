package mcheck

import (
	"fmt"
	"os"
	"sort"

	"cachesync/internal/protocol"
)

// LSM-shaped visited store. With Options.MemBudget set, each of the 64
// visited shards holds only its recent states in the open-addressing
// live table; when a shard's live bytes cross the per-shard budget at a
// level boundary, every non-frontier entry is sealed into a sorted,
// delta+varint-compressed immutable run on disk (runfile.go) and the
// live table is rebuilt holding just the frontier. What stays in RAM
// per sealed state is one 64-bit hash fingerprint, so the dominant
// probe — a state never seen before — is answered negatively without
// touching disk; only a fingerprint hit (a true duplicate, or a 2^-64
// collision) pays a pread to confirm against the exact keys. Runs
// merge-compact when a shard accumulates spillCompactAt of them.
//
// Invariants the explorer relies on:
//
//   - stateID stability: an entry's global index (insertion order
//     within its shard) never changes. The live table holds the suffix
//     [sealed, count); sealed prefixes are addressed through each
//     run's base. Frontier entries are never sealed — the next level
//     reads their keys from the live table — because a seal covers
//     exactly [sealed, frontierStart).
//   - Exactness: membership is live-table lookup ∨ (fingerprint hit ∧
//     exact key match on disk). Fingerprints alone never admit a
//     state, so a hash collision costs a read, not soundness.
//   - Determinism: seals fire at level boundaries from byte counts
//     that depend only on the explored state space, never on worker
//     scheduling — so run files, spill counters, and the resumed
//     exploration are byte-identical across worker counts and across
//     kill/resume (checkpoint.go leans on this).

// spillCompactAt is the per-shard run count that triggers a full merge
// compaction.
const spillCompactAt = 4

// edgeMemSz is what MemBudget charges for one live entry's parent
// edge. It is not the edge's size — the store keeps a 32-byte record
// (runEdgeSz) — but the charge the budget's seal points were set with,
// so that spill counts stay what they were measured as.
const edgeMemSz = 48

func opFromByte(b byte) protocol.Op { return protocol.Op(b) }

// fpSet is an open-addressing set of 64-bit key hashes — the in-memory
// fingerprint of a shard's sealed entries.
type fpSet struct {
	slots   []uint64
	mask    uint64
	n       int
	hasZero bool
}

func (f *fpSet) add(h uint64) {
	if h == 0 {
		f.hasZero = true
		return
	}
	if f.slots == nil {
		f.slots = make([]uint64, 256)
		f.mask = 255
	}
	if 4*(f.n+1) > 3*len(f.slots) {
		ns := make([]uint64, 2*len(f.slots))
		nm := uint64(len(ns) - 1)
		for _, v := range f.slots {
			if v == 0 {
				continue
			}
			p := v & nm
			for ns[p] != 0 {
				p = (p + 1) & nm
			}
			ns[p] = v
		}
		f.slots, f.mask = ns, nm
	}
	pos := h & f.mask
	for {
		v := f.slots[pos]
		if v == 0 {
			f.slots[pos] = h
			f.n++
			return
		}
		if v == h {
			return
		}
		pos = (pos + 1) & f.mask
	}
}

func (f *fpSet) contains(h uint64) bool {
	if h == 0 {
		return f.hasZero
	}
	if f.slots == nil {
		return false
	}
	pos := h & f.mask
	for {
		v := f.slots[pos]
		if v == 0 {
			return false
		}
		if v == h {
			return true
		}
		pos = (pos + 1) & f.mask
	}
}

func (f *fpSet) bytes() int64 { return int64(len(f.slots)) * 8 }

// probeScratch is per-goroutine scratch for disk probes: a read buffer
// and a small cache of decoded key blocks, so repeated probes into the
// same neighbourhood decode once.
type probeScratch struct {
	buf    []byte
	blocks [8]blockCache
}

type blockCache struct {
	r     *runReader
	block int
	n     int
	keys  []uint64
}

func newProbeScratch(kw int) *probeScratch { return &probeScratch{} }

// spillShard is one visited shard: live suffix table, sealed runs, and
// the sealed fingerprint set.
type spillShard struct {
	live   *shardTable
	sealed int // global index of the first live entry
	runs   []*runReader
	fp     fpSet
}

// spillStore is the visited set of one exploration: 64 spillShards plus
// the spill directory and budget. With budget 0 it degenerates to the
// pure in-memory store (no dir, no seals, identical behavior to the
// pre-spill checker).
type spillStore struct {
	kw       int
	arenas   []*arena // shard s's entries live in arenas[s%len(arenas)]
	dir      string
	budget   int64 // per-shard live-byte budget; 0 = never seal
	shards   [shardCount]spillShard
	nextSeq  int
	seals    int
	obsolete []string // compacted-away files, deleted after next checkpoint

	// durable, set when dir is a checkpoint directory, fsyncs every run
	// before it is renamed into place (runWriter.durable); synced counts
	// the runs so written.
	durable bool
	synced  int
}

// newSpillStore builds an empty store whose shards spread over the
// given number of entry arenas as ShardSession.eachShard spreads them
// over its workers, so concurrent absorb workers never fill the same
// arena. dir may be "" when budget is 0.
func newSpillStore(kw int, dir string, memBudget int64, arenas int) *spillStore {
	st := &spillStore{kw: kw, dir: dir}
	for range arenas {
		st.arenas = append(st.arenas, &arena{kw: kw})
	}
	if memBudget > 0 {
		st.budget = memBudget / shardCount
		if st.budget < 1 {
			st.budget = 1
		}
	}
	for i := range st.shards {
		st.shards[i].live = newShardTable(st.arenas[i%arenas])
	}
	return st
}

func (st *spillStore) close() {
	for i := range st.shards {
		for _, r := range st.shards[i].runs {
			r.close()
		}
		st.shards[i].runs = nil
	}
}

// count returns shard s's total entry count (sealed + live).
func (st *spillStore) count(s int) int { return st.shards[s].sealed + st.shards[s].live.n }

// states returns the number of visited states across all shards.
func (st *spillStore) states() int64 {
	var n int64
	for s := range st.shards {
		n += int64(st.count(s))
	}
	return n
}

// key returns the key of id, which must be live (callers only read
// frontier keys, and frontiers are never sealed).
func (st *spillStore) key(id stateID) []uint64 {
	sh := &st.shards[id.shard()]
	return sh.live.key(id.index() - sh.sealed)
}

// insert adds a key that must not be present and returns its global
// index within shard s.
func (st *spillStore) insert(s int, key []uint64, h uint64, e edge) int {
	sh := &st.shards[s]
	var rec [runEdgeSz]byte
	putEdge(rec[:], e)
	return sh.sealed + sh.live.insert(key, h, rec[:])
}

// contains reports whether key (hash h) has been visited, consulting
// the live table first, then the fingerprint set, and only on a
// fingerprint hit the sealed runs on disk.
func (st *spillStore) contains(s int, key []uint64, h uint64, sc *probeScratch) (bool, error) {
	sh := &st.shards[s]
	if sh.live.lookup(key, h) >= 0 {
		return true, nil
	}
	if !sh.fp.contains(h) {
		return false, nil
	}
	for _, r := range sh.runs {
		ok, err := r.probe(key, sc)
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// edgeOf returns id's parent edge, reading from disk when the entry is
// sealed.
func (st *spillStore) edgeOf(id stateID, sc *probeScratch) (edge, error) {
	sh := &st.shards[id.shard()]
	if i := id.index(); i >= sh.sealed {
		return getEdge(sh.live.edge(i - sh.sealed)), nil
	}
	idx := uint64(id.index())
	for _, r := range sh.runs {
		if r.containsIdx(idx) {
			return r.edgeAt(idx, sc)
		}
	}
	return edge{}, fmt.Errorf("mcheck: spill: no run covers shard %d entry %d", id.shard(), id.index())
}

// liveBytes is what MemBudget charges for shard s's live table: per
// entry its key and hash words and edgeMemSz, plus the slots.
func (st *spillStore) liveBytes(s int) int64 {
	t := st.shards[s].live
	return int64(t.n)*int64(st.kw*8+8+edgeMemSz) + int64(len(t.slots))*4
}

// sealOver seals every over-budget shard after a level's merge.
// frontierStart[s] is shard s's global count before the merge: entries
// below it are no longer frontier and may go to disk.
func (st *spillStore) sealOver(frontierStart []int) error {
	if st.budget == 0 {
		return nil
	}
	for s := range st.shards {
		if st.liveBytes(s) <= st.budget || frontierStart[s] <= st.shards[s].sealed {
			continue
		}
		if err := st.seal(s, frontierStart[s]); err != nil {
			return err
		}
		if len(st.shards[s].runs) >= spillCompactAt {
			if err := st.compact(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// seal writes shard s's live entries [sealed, upto) into a new run and
// rebuilds the live table holding only [upto, count).
func (st *spillStore) seal(s, upto int) error {
	sh := &st.shards[s]
	t := sh.live
	n := upto - sh.sealed // live entries to seal
	// Sort the sealed range by key; edges stay in insertion order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return lessKey(t.key(order[i]), t.key(order[j]))
	})
	w, err := st.newRun(uint64(sh.sealed))
	if err != nil {
		return err
	}
	for _, i := range order {
		if err := w.add(t.key(i), t.hash(i)); err != nil {
			return err
		}
	}
	edges := make([]byte, n*runEdgeSz)
	for i := 0; i < n; i++ {
		copy(edges[i*runEdgeSz:], t.edge(i))
	}
	if err := st.finishRun(w, edges); err != nil {
		return err
	}
	r, err := openRun(w.path, st.kw, false)
	if err != nil {
		return err
	}
	for _, i := range order {
		sh.fp.add(t.hash(i))
	}
	sh.runs = append(sh.runs, r)
	st.nextSeq++
	st.seals++
	// Rebuild the live table with the surviving frontier entries
	// [upto, count), preserving their insertion order, and give the old
	// table's blocks back to the arena. Their only other views are the
	// parent keys of the candidates this level's Absorb has just
	// consumed: a spilling session is the only one, so no other session
	// absorbs them later.
	nl := newShardTable(t.ar)
	for i := n; i < t.n; i++ {
		nl.insert(t.key(i), t.hash(i), t.edge(i))
	}
	t.release()
	sh.live = nl
	sh.sealed = upto
	return nil
}

// newRun starts the store's next run file, whose first edge has global
// index base.
func (st *spillStore) newRun(base uint64) (*runWriter, error) {
	w, err := newRunWriter(st.dir, st.nextSeq, st.kw, base)
	if err != nil {
		return nil, err
	}
	w.durable = st.durable
	return w, nil
}

// finishRun completes w (runWriter.finish), counting it when it was
// fsynced.
func (st *spillStore) finishRun(w *runWriter, edges []byte) error {
	if err := w.finish(edges); err != nil {
		return err
	}
	if w.synced {
		st.synced++
	}
	return nil
}

// compact merges all of shard s's runs into one. Runs hold disjoint
// key sets (a key is sealed exactly once), so the merge is a plain
// k-way interleave; edge sections concatenate in base order to stay in
// insertion order.
func (st *spillStore) compact(s int) error {
	sh := &st.shards[s]
	old := append([]*runReader(nil), sh.runs...)
	sort.Slice(old, func(i, j int) bool { return old[i].base < old[j].base })
	w, err := st.newRun(old[0].base)
	if err != nil {
		return err
	}
	type head struct {
		it   *runIter
		key  []uint64
		hash uint64
	}
	heads := make([]*head, 0, len(old))
	for _, r := range old {
		it, err := newRunIter(r)
		if err != nil {
			return err
		}
		k, h, ok, err := it.next()
		if err != nil {
			return err
		}
		if ok {
			heads = append(heads, &head{it: it, key: append([]uint64(nil), k...), hash: h})
		}
	}
	for len(heads) > 0 {
		mi := 0
		for i := 1; i < len(heads); i++ {
			if lessKey(heads[i].key, heads[mi].key) {
				mi = i
			}
		}
		if err := w.add(heads[mi].key, heads[mi].hash); err != nil {
			return err
		}
		k, h, ok, err := heads[mi].it.next()
		if err != nil {
			return err
		}
		if ok {
			heads[mi].key = append(heads[mi].key[:0], k...)
			heads[mi].hash = h
		} else {
			heads[mi] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
	}
	var edges []byte
	for _, r := range old {
		raw, err := r.readEdgesRaw()
		if err != nil {
			return err
		}
		edges = append(edges, raw...)
	}
	if err := st.finishRun(w, edges); err != nil {
		return err
	}
	r, err := openRun(w.path, st.kw, false)
	if err != nil {
		return err
	}
	for _, o := range old {
		o.close()
		st.obsolete = append(st.obsolete, o.path)
	}
	sh.runs = []*runReader{r}
	st.nextSeq++
	return nil
}

// dropObsolete deletes run files superseded by compaction. With
// checkpointing the caller holds the deletes until after the manifest
// rename, so a crash between compaction and checkpoint leaves the
// files the old manifest references intact.
func (st *spillStore) dropObsolete() {
	for _, p := range st.obsolete {
		os.Remove(p)
	}
	st.obsolete = nil
}

// Aggregate stats for Result and -progress.

func (st *spillStore) ramBytes() int64 {
	var b int64
	for s := range st.shards {
		b += st.liveBytes(s) + st.shards[s].fp.bytes()
	}
	return b
}

func (st *spillStore) spilledBytes() int64 {
	var b int64
	for s := range st.shards {
		for _, r := range st.shards[s].runs {
			b += r.size
		}
	}
	return b
}

func (st *spillStore) spilledStates() int64 {
	var n int64
	for s := range st.shards {
		n += int64(st.shards[s].sealed)
	}
	return n
}

func (st *spillStore) runCount() int {
	n := 0
	for s := range st.shards {
		n += len(st.shards[s].runs)
	}
	return n
}
