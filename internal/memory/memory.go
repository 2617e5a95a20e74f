// Package memory models main memory for the broadcast cache system.
//
// Memory stores real word values (so tests can verify the
// latest-version requirement with data, not just states), and carries
// two optional pieces of per-block state used by specific protocols:
//
//   - a source bit (Frank's Synapse, Feature 2): whether memory, as
//     opposed to some cache, is the source of the block;
//   - a lock tag (Section E.3): when a locked block must be purged
//     from a small-set-size cache, the lock bit is written to memory so
//     the lock survives the purge.
package memory

import (
	"cachesync/internal/addr"
	"cachesync/internal/bus"
	"cachesync/internal/stats"
)

// LockTag records a lock that was pushed out to memory when the
// locked block was purged (Section E.3, "Two Concerns").
type LockTag struct {
	Locked bool
	Owner  int  // processor/cache that holds the lock
	Waiter bool // the purged line was in the lock-waiter state
}

// Memory is a latency-free value store; the simulation engine prices
// access latency from its Timing model.
type Memory struct {
	geom      addr.Geometry
	data      *blockStore
	notSource map[addr.Block]bool // Frank: true when a cache, not memory, is source
	lockTags  map[addr.Block]LockTag

	// Dir is the presence directory used by partial-broadcast schemes
	// (Censier-Feautrier); broadcast protocols leave it empty.
	Dir *Directory

	// journal, when attached, receives the block of every write to
	// what the coherence invariants read: data words and lock tags.
	journal *addr.Journal

	Counts stats.Counters
	// Cached stats handles for the per-snoop counters, resolved on
	// first use (see stats.Counters.Handle).
	cflushH, supplyH, wwordH, uwordH, flushH, iowH *int64
}

// bump increments the counter behind *h, resolving the handle on
// first use.
func (m *Memory) bump(h **int64, name string) {
	if *h == nil {
		*h = m.Counts.Handle(name)
	}
	**h++
}

// New returns an empty memory (all words read as zero).
func New(g addr.Geometry) *Memory {
	return &Memory{
		geom:      g,
		data:      newBlockStore(g.BlockWords),
		notSource: make(map[addr.Block]bool),
		lockTags:  make(map[addr.Block]LockTag),
		Dir:       NewDirectory(),
	}
}

// SetJournal attaches j (nil detaches): from now on WriteBlock,
// WriteWord and SetLockTag record their block in j, and so does
// Respond when it sets a lock tag's Waiter bit — no coherence
// invariant reads that bit, but the model checker's state key encodes
// it. Respond's data writes go through the first two. The source bits
// and the directory are not recorded.
func (m *Memory) SetJournal(j *addr.Journal) { m.journal = j }

// note records block b in the attached journal, if any.
func (m *Memory) note(b addr.Block) {
	if m.journal != nil {
		m.journal.Add(b)
	}
}

// Geometry returns the memory geometry.
func (m *Memory) Geometry() addr.Geometry { return m.geom }

func (m *Memory) block(b addr.Block) []uint64 {
	return m.data.getOrCreate(b)
}

// ReadBlock returns a copy of block b's contents.
func (m *Memory) ReadBlock(b addr.Block) []uint64 {
	out := make([]uint64, m.geom.BlockWords)
	copy(out, m.block(b))
	return out
}

// BlockView returns block b's contents without copying. The slice
// aliases live memory — callers must treat it as read-only; it exists
// for the per-transition inspection loops of the checkers.
func (m *Memory) BlockView(b addr.Block) []uint64 {
	return m.block(b)
}

// WriteBlock stores a whole block (a flush/write-back).
func (m *Memory) WriteBlock(b addr.Block, words []uint64) {
	m.note(b)
	copy(m.block(b), words)
}

// ReadWord returns the word at a.
func (m *Memory) ReadWord(a addr.Addr) uint64 {
	return m.block(m.geom.BlockOf(a))[m.geom.Offset(a)]
}

// WriteWord stores one word (a write-through).
func (m *Memory) WriteWord(a addr.Addr, v uint64) {
	b := m.geom.BlockOf(a)
	m.note(b)
	m.block(b)[m.geom.Offset(a)] = v
}

// SetSource records whether memory is the source for block b
// (Frank's memory source bit). Memory is the source by default.
func (m *Memory) SetSource(b addr.Block, memoryIsSource bool) {
	if memoryIsSource {
		delete(m.notSource, b)
	} else {
		m.notSource[b] = true
	}
}

// IsSource reports whether memory is the source for block b.
func (m *Memory) IsSource(b addr.Block) bool { return !m.notSource[b] }

// SetLockTag installs or clears the memory lock tag for block b.
func (m *Memory) SetLockTag(b addr.Block, t LockTag) {
	m.note(b)
	if t.Locked {
		m.lockTags[b] = t
	} else {
		delete(m.lockTags, b)
	}
}

// GetLockTag returns block b's lock tag.
func (m *Memory) GetLockTag(b addr.Block) LockTag {
	if len(m.lockTags) == 0 {
		// Most protocols never purge a lock to memory; skip the map.
		return LockTag{}
	}
	return m.lockTags[b]
}

// Respond applies memory's role in a bus transaction after all caches
// have snooped. It supplies data when no cache inhibited it, absorbs
// write-throughs and flushes, and enforces memory lock tags.
// It reports whether memory supplied the block data (so the engine can
// charge memory latency).
func (m *Memory) Respond(t *bus.Transaction) (supplied bool) {
	// A lock pushed to memory denies fetches by anyone but the owner
	// (Section E.3): the lock is still held even though no cache holds
	// the locked line. The len guard keeps the common no-locks case off
	// the map entirely.
	if tag := m.GetLockTag(t.Block); tag.Locked {
		switch t.Cmd {
		case bus.Read, bus.ReadX, bus.Upgrade, bus.WriteNoFetch:
			if t.Requester != tag.Owner {
				t.Lines.Locked = true
				if !tag.Waiter {
					tag.Waiter = true
					m.note(t.Block)
					m.lockTags[t.Block] = tag
				}
				return false
			}
			// The owner re-fetching its own locked block (e.g. to
			// unlock it) reclaims the lock from memory.
			if t.UnlockIntent || t.LockIntent {
				t.Lines.Locked = false
			}
		}
	}

	// A snooper that flushed during a cache-to-cache transfer also
	// updates memory (Feature 7).
	if t.Flushed && t.Cmd != bus.Flush && len(t.BlockData) > 0 {
		m.WriteBlock(t.Block, t.BlockData)
		m.bump(&m.cflushH, "mem.concurrent-flush")
	}

	switch t.Cmd {
	case bus.Read, bus.ReadX, bus.IORead:
		if t.Lines.Locked {
			return false
		}
		if t.Lines.Inhibit {
			return false // a source cache supplies the block
		}
		t.SupplyBlock(m.block(t.Block))
		m.bump(&m.supplyH, "mem.supply")
		return true
	case bus.WriteWord:
		if t.Lines.Locked {
			return false
		}
		m.WriteWord(t.Addr, t.WordData)
		m.bump(&m.wwordH, "mem.writeword")
	case bus.UpdateWord:
		if t.MemUpdate {
			m.WriteWord(t.Addr, t.WordData)
			m.bump(&m.uwordH, "mem.updateword")
		}
	case bus.Flush:
		m.WriteBlock(t.Block, t.BlockData)
		m.bump(&m.flushH, "mem.flush")
	case bus.IOWrite:
		if t.Lines.Locked {
			// The block is locked in a cache: the input transfer is
			// denied (Section E.2 / E.3).
			return false
		}
		m.WriteBlock(t.Block, t.BlockData)
		m.bump(&m.iowH, "mem.iowrite")
	}
	return false
}
