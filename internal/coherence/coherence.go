// Package coherence machine-checks the paper's two implementation
// requirements (Section C.1) on a simulated system:
//
//  1. serialize conflicting accesses — at most one sole-access holder
//     per block, excluding all other copies;
//  2. provide the latest version — clean copies equal memory, every
//     copy of an update protocol equals the owner's, at most one dirty
//     copy exists, and a single source (except Illinois' by-design
//     multi-source).
//
// It additionally checks lock mutual exclusion across cache lock
// states and memory lock tags (Section E.3).
//
// The invariants are exposed as per-invariant predicates over the raw
// (protocol, caches, memory) surface so that the online checker
// (Online, run from sim.System's OnTxn hook), the full sweep (Check,
// on a quiesced system) and the bounded model checker
// (internal/mcheck, via a Checker on its own machine) share one
// implementation. The model checker runs the suite after every
// explored transition and the online checker after every bus
// transaction, so a Checker walks the caches once per block and
// inspects data through non-copying views.
package coherence

import (
	"fmt"
	"slices"

	"cachesync/internal/addr"
	"cachesync/internal/cache"
	"cachesync/internal/memory"
	"cachesync/internal/protocol"
	"cachesync/internal/sim"
)

// HeldBlocks returns the sorted union of blocks any cache currently
// holds valid.
func HeldBlocks(caches []*cache.Cache) []addr.Block {
	return heldBlocks(nil, caches)
}

// heldBlocks is HeldBlocks built in buf's storage.
func heldBlocks(buf []addr.Block, caches []*cache.Cache) []addr.Block {
	buf = buf[:0]
	for _, c := range caches {
		buf = c.AppendBlocks(buf)
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// blockHolders is the per-block view of the caches, gathered once and
// shared by the per-invariant predicates: IDs, states, and read-only
// data views of every valid copy.
type blockHolders struct {
	ids    []int
	states []protocol.State
	datas  [][]uint64
}

func (h *blockHolders) gather(caches []*cache.Cache, b addr.Block) {
	h.ids, h.states, h.datas = h.ids[:0], h.states[:0], h.datas[:0]
	for _, c := range caches {
		// One tag lookup per cache: FrameView finds the frame once and
		// hands back state and data together (State+DataView would walk
		// the set twice).
		st, data, ok := c.FrameView(b)
		if !ok || st == protocol.Invalid {
			continue
		}
		h.ids = append(h.ids, c.ID())
		h.states = append(h.states, st)
		h.datas = append(h.datas, data)
	}
}

// CheckSerialization verifies requirement 1 for block b: at most one
// sole-access (write or lock privilege) holder, and if one exists, no
// other valid copy — except under update protocols, where shared
// copies are exact duplicates kept consistent by word broadcasts.
func CheckSerialization(p protocol.Protocol, caches []*cache.Cache, b addr.Block) []string {
	var h blockHolders
	h.gather(caches, b)
	return serializationViolations(p, &h, b, nil)
}

func serializationViolations(p protocol.Protocol, h *blockHolders, b addr.Block, out []string) []string {
	writers := 0
	for _, st := range h.states {
		if p.Privilege(st) >= protocol.PrivWrite {
			writers++
		}
	}
	if writers > 1 {
		out = append(out, fmt.Sprintf("block %d: %d sole-access holders (caches %v)", b, writers, h.ids))
	}
	if writers == 1 && len(h.ids) > 1 {
		out = append(out, fmt.Sprintf("block %d: sole-access holder coexists with %d copies (caches %v)", b, len(h.ids)-1, h.ids))
	}
	return out
}

// CheckSingleSource verifies that at most one cache carries source
// status for block b, except for protocols whose Feature 8 policy is
// "ARB" (Illinois: multiple sources, bus arbitration selects one).
func CheckSingleSource(p protocol.Protocol, caches []*cache.Cache, b addr.Block) []string {
	var h blockHolders
	h.gather(caches, b)
	f := p.Features()
	return singleSourceViolations(p, &f, &h, b, nil)
}

func singleSourceViolations(p protocol.Protocol, f *protocol.Features, h *blockHolders, b addr.Block, out []string) []string {
	if f.SourcePolicy == "ARB" {
		return out
	}
	sources := 0
	for _, st := range h.states {
		if p.IsSource(st) {
			sources++
		}
	}
	if sources > 1 {
		out = append(out, fmt.Sprintf("block %d: %d sources under %s (caches %v)", b, sources, p.Name(), h.ids))
	}
	return out
}

// CheckLatestVersion verifies requirement 2 for block b with real
// data: at most one dirty copy; when no copy is dirty, every copy
// equals memory; under update protocols, every copy equals the dirty
// owner's.
func CheckLatestVersion(p protocol.Protocol, caches []*cache.Cache, mem *memory.Memory, b addr.Block) []string {
	var h blockHolders
	h.gather(caches, b)
	f := p.Features()
	return latestVersionViolations(p, &f, &h, mem, b, nil)
}

func latestVersionViolations(p protocol.Protocol, f *protocol.Features, h *blockHolders, mem *memory.Memory, b addr.Block, out []string) []string {
	dirties := 0
	var dirtyData []uint64
	for i, st := range h.states {
		if p.IsDirty(st) {
			dirties++
			dirtyData = h.datas[i]
		}
	}
	if dirties > 1 {
		out = append(out, fmt.Sprintf("block %d: %d dirty copies", b, dirties))
	}
	if dirties == 0 {
		memData := mem.BlockView(b)
		for i, cp := range h.datas {
			if !equal(cp, memData) {
				out = append(out, fmt.Sprintf("block %d: clean copy %d diverges from memory: %v vs %v",
					b, h.ids[i], cp, memData))
			}
		}
	} else if f.Policy == protocol.PolicyUpdate {
		for i, cp := range h.datas {
			if !equal(cp, dirtyData) {
				out = append(out, fmt.Sprintf("block %d: update-protocol copy %d diverges from owner: %v vs %v",
					b, h.ids[i], cp, dirtyData))
			}
		}
	}
	return out
}

// CheckLockMutex verifies lock mutual exclusion for block b across
// both representations a lock can take: cache lines in a lock state,
// and the memory lock tag a purged lock leaves behind (Section E.3).
// At most one lock may exist, and a memory lock tag must not coexist
// with a lock state in a cache other than the recorded owner.
func CheckLockMutex(p protocol.Protocol, caches []*cache.Cache, mem *memory.Memory, b addr.Block) []string {
	var h blockHolders
	h.gather(caches, b)
	return lockMutexViolations(p, &h, mem, b, nil)
}

func lockMutexViolations(p protocol.Protocol, h *blockHolders, mem *memory.Memory, b addr.Block, out []string) []string {
	// Count first: the locker list is built only for a message, so a
	// coherent block costs no allocation.
	tag := mem.GetLockTag(b)
	n, foreign := 0, false
	for i, st := range h.states {
		if p.Privilege(st) == protocol.PrivLock {
			n++
			foreign = foreign || tag.Locked && h.ids[i] != tag.Owner
		}
	}
	if n <= 1 && !foreign {
		return out
	}
	lockers := make([]int, 0, n)
	for i, st := range h.states {
		if p.Privilege(st) == protocol.PrivLock {
			lockers = append(lockers, h.ids[i])
		}
	}
	if n > 1 {
		out = append(out, fmt.Sprintf("block %d: locked by %d caches %v", b, n, lockers))
	}
	if tag.Locked {
		for _, id := range lockers {
			if id != tag.Owner {
				out = append(out, fmt.Sprintf("block %d: memory lock tag owned by %d coexists with cache lock in %d",
					b, tag.Owner, id))
			}
		}
	}
	return out
}

// CheckAll runs every invariant over the given blocks (when blocks is
// nil, over every block any cache holds — note that nil then skips
// memory-lock-tag-only blocks, so pass the block universe explicitly
// when lock purges are possible).
func CheckAll(p protocol.Protocol, caches []*cache.Cache, mem *memory.Memory, blocks []addr.Block) []string {
	return NewChecker(p).Check(caches, mem, blocks)
}

// Checker is the full invariant suite bound to one protocol, with the
// Features descriptor computed once and per-block scratch reused
// across calls. The model checker runs a check after every explored
// transition: rebuilding the descriptor (it contains a map) and
// regrowing the holder slices per call would dominate the check, so
// each exploration worker holds one Checker for its whole run. A
// Checker is not safe for concurrent use.
type Checker struct {
	p    protocol.Protocol
	f    protocol.Features
	h    blockHolders
	held []addr.Block // block list of a nil-blocks Check
}

// NewChecker builds a Checker for p.
func NewChecker(p protocol.Protocol) *Checker {
	return &Checker{p: p, f: p.Features()}
}

// Check runs every invariant over the given blocks, with the same
// nil-blocks caveat as CheckAll. The returned slice is nil when the
// state is coherent.
func (ck *Checker) Check(caches []*cache.Cache, mem *memory.Memory, blocks []addr.Block) []string {
	if blocks == nil {
		ck.held = heldBlocks(ck.held, caches)
		blocks = ck.held
	}
	var out []string
	for _, b := range blocks {
		ck.h.gather(caches, b)
		out = ck.violations(mem, b, out)
	}
	return out
}

// violations runs every predicate over block b, whose holders are
// already gathered into ck.h, and appends what they report to out.
func (ck *Checker) violations(mem *memory.Memory, b addr.Block, out []string) []string {
	out = serializationViolations(ck.p, &ck.h, b, out)
	out = singleSourceViolations(ck.p, &ck.f, &ck.h, b, out)
	out = latestVersionViolations(ck.p, &ck.f, &ck.h, mem, b, out)
	return lockMutexViolations(ck.p, &ck.h, mem, b, out)
}

// Check validates every block any cache currently holds and returns a
// list of violations (empty when coherent): the full sweep, run on a
// quiesced system and as the reference Online is tested against.
func Check(s *sim.System) []string {
	return CheckAll(s.Protocol(), s.Caches, s.Mem, nil)
}

// Online is the incremental form of Check for one run of one system,
// built to run after every bus transaction. It attaches a journal to
// every cache and to memory, which record the block of each write to
// what the invariants read, and each Check validates only the
// journaled blocks some cache still holds valid, in ascending order.
//
// Over a run, the violations Check reports for the first time are
// those the full sweep would report for the first time, at the same
// call and in the same order. A block's violations depend only on its
// holders' IDs, states and data, its memory words and its lock tag. A
// block missing from the journal has none of these changed since the
// previous call, so the full sweep would repeat for it only what was
// already reported. The journal is seeded with every block held when
// Online is built, so the first call covers those too.
type Online struct {
	caches  []*cache.Cache
	mem     *memory.Memory
	ck      *Checker
	journal addr.Journal
}

// NewOnline builds the online checker for s and attaches its journal
// to s's caches and memory.
func NewOnline(s *sim.System) *Online {
	o := &Online{caches: s.Caches, mem: s.Mem, ck: NewChecker(s.Protocol())}
	for _, b := range HeldBlocks(o.caches) {
		o.journal.Add(b)
	}
	for _, c := range o.caches {
		c.SetJournal(&o.journal)
	}
	o.mem.SetJournal(&o.journal)
	return o
}

// Check validates every block journaled since the previous call that
// some cache holds valid, empties the journal and returns the
// violations (nil when coherent).
func (o *Online) Check() []string {
	var out []string
	for _, b := range o.journal.Sorted() {
		o.ck.h.gather(o.caches, b)
		if len(o.ck.h.ids) > 0 {
			out = o.ck.violations(o.mem, b, out)
		}
	}
	o.journal.Reset()
	return out
}

func equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
