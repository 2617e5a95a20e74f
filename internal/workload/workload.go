// Package workload generates the reference streams the benches run:
// the sharing patterns Section B.1 motivates (producer/consumer
// variable bindings, service-request queues among lightweight Prolog
// processes), busy-wait lock contention, Archibald-Baer-style mixed
// random sharing, private-data runs, and process-switch state saves.
// Each generator's Programs method returns one sim.Program per
// processor, and all generators are deterministic for a given seed.
package workload

import (
	"cachesync/internal/addr"
	"cachesync/internal/syncprim"
)

// Layout carves the word-address space into the regions the
// generators use, keeping locks and data on separate blocks (the
// paper's rule: under write-in, blocks should be devoted to atoms,
// Section D.2).
type Layout struct {
	G addr.Geometry
}

// LockAddr returns the first word of the i-th lock block (each lock
// gets a whole block to itself).
func (l Layout) LockAddr(i int) addr.Addr { return l.G.Base(addr.Block(i)) }

// SharedBlock returns the i-th shared data block, placed after 64
// lock blocks.
func (l Layout) SharedBlock(i int) addr.Block { return addr.Block(64 + i) }

// PrivateBlock returns processor p's i-th private block, placed after
// 4096 shared blocks.
func (l Layout) PrivateBlock(p, i int) addr.Block {
	return addr.Block(64 + 4096 + p*4096 + i)
}

// InstrBlock returns processor p's i-th instruction block, placed
// after the private region (64 processors' worth of private blocks).
func (l Layout) InstrBlock(p, i int) addr.Block {
	return addr.Block(64 + 4096 + 64*4096 + p*64 + i)
}

// ProducerConsumer is the Prolog/dataflow pattern of Section B.1: a
// producer binds a value (writing the atom WritesPerItem times while
// holding its lock) and a consumer reads and acknowledges it.
type ProducerConsumer struct {
	Items         int // values passed producer -> consumer
	WritesPerItem int // writes to the atom per hold (the "n" of Section D.2)
	Scheme        syncprim.Scheme
}

// LockContention stresses one or more busy-wait locks: every
// processor loops acquire / critical-section / release. It is the
// workload behind the zero-time-locking and no-bus-retry claims
// (Sections E.3, E.4).
type LockContention struct {
	Locks       int
	Iters       int
	HoldCycles  int64 // critical-section length
	ThinkCycles int64 // gap between acquisitions
	CSWrites    int   // writes inside the critical section (to the lock's atom)
	Scheme      syncprim.Scheme
	Seed        int64
}

// ServiceQueues is Section B.1's service-request management: each
// processor owns a request queue (a lock plus a descriptor block);
// processors post requests to other processors' queues and drain
// their own. It models the Aquarius pattern of a program interpreter
// sending requests to floating-point or I/O processors.
type ServiceQueues struct {
	Requests int // requests each processor posts
	QueueCap int // slots per queue (within one descriptor block)
	Scheme   syncprim.Scheme
	Seed     int64
}

// Mixed is the Archibald-Baer-style random reference stream: a
// fraction of references touch shared blocks, the rest private; a
// write fraction around Smith's 35% figure (Section F.3, Feature 3).
type Mixed struct {
	Ops          int
	SharedBlocks int
	PrivBlocks   int
	SharedFrac   float64 // fraction of references to shared data
	WriteFrac    float64
	Seed         int64
}

// PrivateRuns exercises Feature 5's scenario: sequential runs over
// private data that are read and then (with probability WriteBack)
// written — where fetching unshared data with write privilege on the
// read miss saves the later invalidation cycle.
type PrivateRuns struct {
	Blocks    int
	Sweeps    int
	WriteBack float64 // probability a visited block is written after reading
	Static    bool    // use the compiler-declared read-for-write instruction
	Seed      int64
}

// StateSave is Feature 9's scenario: frequent process switches saving
// whole blocks of processor state (Aquarius expects "frequent process
// switching, hence the switching must be very efficient").
type StateSave struct {
	Switches    int
	StateBlocks int // blocks of state written per switch
}

// LockedData is the two-tier split made explicit (Figure 11): an
// instruction-fetch burst through the lower tier, then a lock (hard
// atom, synchronization tier) guarding a plain-data record that lives
// in the lower tier — the reference mix the Aquarius machine routes
// across both interconnects, and the workload the disaggregated
// RemoteCycles sweep stresses (remote cost lands on the guarded
// record, stretching lock hold times).
type LockedData struct {
	Locks   int
	Iters   int
	Records int   // record words read+written per critical section
	Instrs  int   // instruction fetches per iteration
	Think   int64 // gap between iterations
	Scheme  syncprim.Scheme
	Seed    int64
}
