package mcheck

import "math/bits"

// This file is the storage layer of the exploration core: packed
// binary state keys hashed once with a single xxhash-style mix, stored
// in custom open-addressing tables whose entries sit in arena slabs
// that never move. A duplicate hit costs one hash, one probe chain, and
// zero allocations — the previous map[string]visitedEntry design paid a
// string conversion plus two FNV passes per explored transition.

// shardCount fixes the number of hash shards of the visited set; the
// per-level absorb parallelizes over shards. It must stay a power of
// two ≤ 256 because shardOfHash takes the hash's top bits.
const shardCount = 64

// stateID names a visited state: shard index in the high 32 bits,
// entry index within the shard in the low 32.
type stateID uint64

// noParent marks the root's parent edge.
const noParent = ^stateID(0)

func packID(shard, idx int) stateID { return stateID(shard)<<32 | stateID(uint32(idx)) }

func (id stateID) shard() int { return int(id >> 32) }
func (id stateID) index() int { return int(uint32(id)) }

// edge is the decoded view of a visited state's parent pointer, for
// counterexample trace reconstruction: the parent's session shard and
// state ID there, and the action that discovered the state. The root's
// parent is noParent. The store keeps it as a 32-byte putEdge record
// (runfile.go) — in RAM, in runs and in checkpoint snapshots alike.
type edge struct {
	parent stateID
	psess  int32
	act    Action
}

// hashKey mixes a packed state key with one xxhash-style pass: a
// rotate-multiply round per word and a murmur-style avalanche
// finalizer. The single 64-bit result serves both purposes the old
// code FNV-hashed twice for — shard selection (top bits) and
// open-addressing probe position (low bits).
func hashKey(k []uint64) uint64 {
	const (
		prime1 = 0x9E3779B185EBCA87
		prime2 = 0xC2B2AE3D27D4EB4F
		prime3 = 0x165667B19E3779F9
	)
	h := uint64(len(k))*prime3 + prime2
	for _, w := range k {
		h ^= bits.RotateLeft64(w*prime2, 31) * prime1
		h = bits.RotateLeft64(h, 27)*prime1 + prime3
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 29
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 32
	return h
}

// shardOfHash maps a key hash to its visited-set shard (the probe
// position uses the low bits, so the shard must come from the top).
func shardOfHash(h uint64) int { return int(h >> (64 - 6)) }

func equalKey(a, b []uint64) bool {
	for i, w := range a {
		if b[i] != w {
			return false
		}
	}
	return true
}

// lessKey is lexicographic word-wise comparison; it orders canonical
// frontier keys deterministically.
func lessKey(a, b []uint64) bool { return compareKey(a, b) < 0 }

// compareKey is lessKey's three-way form.
func compareKey(a, b []uint64) int {
	for i, w := range a {
		if w != b[i] {
			if w < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// shardTable is one shard of the visited set: an open-addressing hash
// table over fixed-width []uint64 keys. Each entry — its key, the
// key's hash and its 32-byte parent edge record — lives in the table's
// arena, in blocks of tableBlock entries the table takes one at a time,
// so entries never move once inserted and a table leaves at most
// tableBlock-1 of its entries unused. Lookups never allocate.
type shardTable struct {
	ar     *arena
	mask   uint64   // len(slots) - 1
	slots  []uint32 // entry index + 1; 0 = empty
	blocks []uint32 // arena block of entries [j*tableBlock, (j+1)*tableBlock)
	n      int
}

func newShardTable(ar *arena) *shardTable {
	t := &shardTable{ar: ar}
	t.rehash(256)
	return t
}

func (t *shardTable) rehash(slots int) {
	t.slots = make([]uint32, slots)
	t.mask = uint64(slots - 1)
	for i := 0; i < t.n; i++ {
		pos := t.hash(i) & t.mask
		for t.slots[pos] != 0 {
			pos = (pos + 1) & t.mask
		}
		t.slots[pos] = uint32(i + 1)
	}
}

// at returns entry i's position in the arena.
func (t *shardTable) at(i int) int { return int(t.blocks[i/tableBlock])*tableBlock + i%tableBlock }

// key returns entry i's key view into the arena.
func (t *shardTable) key(i int) []uint64 { return t.ar.key(t.at(i)) }

func (t *shardTable) hash(i int) uint64 { return t.ar.hash(t.at(i)) }

// edge returns entry i's parent edge record (putEdge layout).
func (t *shardTable) edge(i int) []byte { return t.ar.edge(t.at(i)) }

// lookup returns the entry index of key (whose hash is h), or -1.
func (t *shardTable) lookup(key []uint64, h uint64) int {
	pos := h & t.mask
	for {
		s := t.slots[pos]
		if s == 0 {
			return -1
		}
		if p := t.at(int(s - 1)); t.ar.hash(p) == h && equalKey(t.ar.key(p), key) {
			return int(s - 1)
		}
		pos = (pos + 1) & t.mask
	}
}

// insert adds a key that must not already be present, with its parent
// edge record, and returns its entry index.
func (t *shardTable) insert(key []uint64, h uint64, erec []byte) int {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.rehash(2 * len(t.slots))
	}
	i := t.n
	if i%tableBlock == 0 {
		t.blocks = append(t.blocks, t.ar.block())
	}
	t.n++
	p := t.at(i)
	r := t.ar.rec(p)
	copy(r, key)
	r[t.ar.kw] = h
	copy(t.ar.edge(p), erec)
	pos := h & t.mask
	for t.slots[pos] != 0 {
		pos = (pos + 1) & t.mask
	}
	t.slots[pos] = uint32(i + 1)
	return i
}

// release hands the table's blocks back to its arena; the table must
// not be used afterwards.
func (t *shardTable) release() {
	t.ar.free = append(t.ar.free, t.blocks...)
	t.blocks = nil
}

// tableBlock is the number of entries in one block of a shard table's
// storage, a power of two. It is small because every table may leave
// most of a block unused, and a session has 64 tables, few of them
// large when several sessions share a state space.
const tableBlock = 8

// arenaSlab is the number of entries in one arena slab, a multiple of
// tableBlock: large enough that slab allocations stay rare next to the
// transitions explored (TestExpandSteadyStateAllocs), small enough
// that an arena's unused tail, under one slab, stays a few tens of KiB.
const arenaSlab = 256

// arena holds the entries of the shard tables one absorb worker fills:
// keys with their hashes, and parent edge records, in slabs that are
// allocated once and never copied. It hands them to the tables in
// blocks of tableBlock entries, so a slab's two allocations serve many
// small tables, and a table's unused tail is less than one block. A
// sealed table gives its blocks back, and later tables reuse them.
// One goroutine at a time fills an arena (newSpillStore).
type arena struct {
	kw     int
	recs   [][]uint64 // per slab: arenaSlab records of kw key words and the key's hash
	edges  [][]byte   // per slab: arenaSlab parent edge records of runEdgeSz bytes
	blocks int        // blocks carved from the slabs so far
	free   []uint32   // blocks given back by sealed tables
}

func (a *arena) rec(p int) []uint64 {
	o := p % arenaSlab * (a.kw + 1)
	return a.recs[p/arenaSlab][o : o+a.kw+1 : o+a.kw+1]
}

func (a *arena) key(p int) []uint64 { return a.rec(p)[:a.kw:a.kw] }

func (a *arena) hash(p int) uint64 { return a.rec(p)[a.kw] }

func (a *arena) edge(p int) []byte {
	o := p % arenaSlab * runEdgeSz
	return a.edges[p/arenaSlab][o : o+runEdgeSz : o+runEdgeSz]
}

// block returns a block for a table: a given-back one if there is one,
// else the next block of the current slab, allocating a slab when the
// last one is used up.
func (a *arena) block() uint32 {
	if n := len(a.free); n > 0 {
		b := a.free[n-1]
		a.free = a.free[:n-1]
		return b
	}
	if a.blocks*tableBlock == len(a.recs)*arenaSlab {
		a.recs = append(a.recs, make([]uint64, arenaSlab*(a.kw+1)))
		a.edges = append(a.edges, make([]byte, arenaSlab*runEdgeSz))
	}
	a.blocks++
	return uint32(a.blocks - 1)
}

// keySet is the per-worker intra-level duplicate filter: the same
// open-addressing scheme without parent edges. It holds the successors
// the worker handled this level — mailed, or found already visited —
// all of which passed the invariant suite. Its arena doubles as
// the worker's candidate-key storage: a mailed candidate's key aliases
// it until the level's absorb has copied the winners into the store.
// The arena is a list of fixed chunks, so keys never move: a growing
// flat slice would leave every outgrown copy pinned by the candidates
// that alias it.
type keySet struct {
	kw     int
	mask   uint64
	slots  []uint32
	chunks [][]uint64 // keySetChunk keys each, kept across levels
	hashes []uint64
	n      int
}

// keySetChunk is the number of keys per arena chunk (a power of two).
const keySetChunk = 512

func newKeySet(kw int) *keySet {
	s := &keySet{kw: kw, slots: make([]uint32, 256), mask: 255}
	return s
}

// reset empties the set for the next BFS level, keeping its storage.
func (s *keySet) reset() {
	clear(s.slots)
	s.hashes = s.hashes[:0]
	s.n = 0
}

func (s *keySet) key(i int) []uint64 {
	o := i % keySetChunk * s.kw
	return s.chunks[i/keySetChunk][o : o+s.kw : o+s.kw]
}

// find looks key up. It returns the key's entry index, or -1 and the
// empty slot where insert places it.
func (s *keySet) find(key []uint64, h uint64) (int, uint64) {
	pos := h & s.mask
	for {
		sl := s.slots[pos]
		if sl == 0 {
			return -1, pos
		}
		if i := int(sl - 1); s.hashes[i] == h && equalKey(s.key(i), key) {
			return i, pos
		}
		pos = (pos + 1) & s.mask
	}
}

// insert adds key, which find has just reported absent at slot pos,
// and returns its entry index.
func (s *keySet) insert(key []uint64, h, pos uint64) int {
	if 4*(s.n+1) > 3*len(s.slots) {
		ns := make([]uint32, 2*len(s.slots))
		nm := uint64(len(ns) - 1)
		for i := 0; i < s.n; i++ {
			p := s.hashes[i] & nm
			for ns[p] != 0 {
				p = (p + 1) & nm
			}
			ns[p] = uint32(i + 1)
		}
		s.slots, s.mask = ns, nm
		pos = h & s.mask
		for s.slots[pos] != 0 {
			pos = (pos + 1) & s.mask
		}
	}
	i := s.n
	if i/keySetChunk == len(s.chunks) {
		s.chunks = append(s.chunks, make([]uint64, keySetChunk*s.kw))
	}
	s.n++
	copy(s.key(i), key)
	s.hashes = append(s.hashes, h)
	s.slots[pos] = uint32(i + 1)
	return i
}
