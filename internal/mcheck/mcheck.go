// Package mcheck is a bounded exhaustive model checker for the 13
// cache-synchronization protocols: it enumerates every interleaving of
// processor operations (reads, writes, lock acquire/release,
// whole-block writes, and evictions) over a small configuration (1–8
// processors, 1–4 blocks, a bounded depth) and verifies the DESIGN §6
// invariants — serialization, latest version with real data values,
// single source, lock mutual exclusion, and conservation — at every
// reachable state.
//
// The checker is built from the same parts as the simulator: it drives
// real cache.Cache, memory.Memory, and protocol.Protocol objects
// through an atomic-step executor mirroring internal/sim's bus
// semantics (probe → broadcast snoop → memory respond → complete →
// install), so a state the checker reaches is a state the simulator
// can reach. States are packed into fixed-width binary keys (machine
// encodeKey), optionally quotiented by processor symmetry (canon.go),
// hashed once, deduplicated in open-addressing shard tables (table.go),
// and explored by one level-synchronized BFS kernel (shard.go) — over
// one in-process session for Run, over a fleet of sessions for
// RunSharded; workers share each session's frontier and the level
// barrier preserves BFS order — so the first violation found is a
// shortest — minimized — counterexample. A
// counterexample replays both through the executor and, when the trace
// is sim-representable, through a real sim.System run whose bus
// activity renders as a paper-style sequence diagram
// (report.SequenceDiagram).
//
// As a derived artifact, exploring the paper's own protocol regenerates
// the processor half of Figure 10 from reachability: every
// (state, operation) → outcome arc actually exercised is collected and
// cross-checked against the expected-arc table transcribed from the
// paper (report.Figure10ExpectedArcs), closing the loop between the
// diagram and the explored state space.
package mcheck

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"cachesync/internal/protocol"
)

// Options configures one bounded exploration.
type Options struct {
	// Protocol is the scheme under check (possibly wrapped by Mutate
	// for fault-injection testing).
	Protocol protocol.Protocol
	// Procs is the number of caches/processors (1–8). Symmetry
	// reduction canonicalizes over all Procs! permutations, so its
	// per-state cost grows factorially; p=5 (120 orbits) is the widest
	// configuration exercised by the test suite.
	Procs int
	// Blocks is the number of distinct memory blocks in the universe.
	Blocks int
	// Words is the block size in words (forced to 1 for protocols that
	// require one-word blocks).
	Words int
	// Depth bounds the operation-sequence length explored.
	Depth int
	// Workers is the parallel BFS worker count of each session (≤ 1
	// means serial).
	Workers int
	// MaxStates truncates the search after this many distinct states
	// (0 means a safe default).
	MaxStates int
	// RecordArcs collects the (state, op) → outcome arcs exercised by
	// the acting cache, for the Figure 10 reachability cross-check.
	RecordArcs bool
	// Symmetry enables processor-symmetry reduction: states are
	// explored up to permutation of processor indices, shrinking the
	// reachable space by up to Procs! with identical verdicts (see
	// canon.go). Counterexample traces are de-canonicalized, so they
	// replay unchanged.
	Symmetry bool
	// POR enables partial-order reduction: actions on different blocks
	// commute (each touches only its own block's cache lines, memory
	// words, lock tag, and shadow, and every invariant is per-block),
	// so instead of exploring their interleavings the checker expands
	// a state whose key differs from the initial one in block b's
	// section by block b's actions alone, and never visits a state
	// with two modified blocks. It is a filter inside the one BFS
	// pass, so it composes with Symmetry, MemBudget, checkpointing and
	// sharded exploration alike. Verdicts and counterexamples are
	// identical to the unreduced run (see por.go for the argument and
	// the differential test for the proof); state/transition counts
	// and Exhausted/DepthReached cover the union of the per-block
	// subsystems, and MaxStates truncates at a level boundary.
	POR bool
	// MemBudget, when positive, bounds the visited set's in-memory
	// bytes: each of the 64 shards gets MemBudget/64, and a shard that
	// crosses it at a level boundary seals its non-frontier entries
	// into a sorted, delta+varint-compressed immutable run on disk
	// (see spill.go), keeping one 64-bit fingerprint per sealed state
	// in RAM. The budget charges a live entry its key and hash words
	// plus 48 bytes for its parent edge, which the store keeps as a
	// 32-byte record, and a table its hash slots; arena capacity that
	// no entry fills yet is not charged. Verdicts, counterexamples, and
	// counts are identical to the in-memory run; only disk usage and
	// speed differ. 0 keeps the whole visited set in memory.
	MemBudget int64
	// CheckpointDir, when set, enables checkpoint/resume: at the start
	// and after every completed BFS level the frontier, live visited
	// tables, sealed-run manifest, and counters are atomically
	// serialized into this directory (spilled runs live there too). A run killed mid-flight
	// can be resumed with Resume and produces a byte-identical Result.
	// Does not compose with RecordArcs.
	CheckpointDir string
	// Resume, with CheckpointDir, resumes from the checkpoint in the
	// directory if one exists (same options required), and starts
	// fresh otherwise — so a caller can always pass Resume and get
	// at-most-once exploration of each level.
	Resume bool
	// Context, when non-nil, cancels the exploration: every BFS worker
	// of an in-process session polls it per frontier state and the
	// coordinator per level, so a deadline or Ctrl-C aborts mid-level
	// rather than after the frontier drains. Run and RunSharded then
	// return an error wrapping ctx.Err() (test with errors.Is).
	Context context.Context
	// Progress, when set, is called from the coordinating goroutine
	// after every completed BFS level with the cumulative counts and
	// the visited-store footprint — the daemon streams these to job
	// watchers and cmd/mcheck -progress renders them.
	Progress func(ProgressInfo)

	// stateHook, when set, is called once for every distinct visited
	// state with its packed key (the canonical key under Symmetry).
	// The slice aliases table storage and must not be retained. Tests
	// use it to prove the symmetry quotient exact.
	stateHook func(key []uint64)
	// suiteHook, when set, is called once when Run's in-process session
	// completes, with the number of invariant-suite runs its expand
	// workers made. Tests use it to gate the check-once rule of
	// expandWorker.expand exactly.
	suiteHook func(runs int64)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Procs == 0 {
		out.Procs = 2
	}
	if out.Blocks == 0 {
		out.Blocks = 1
	}
	if out.Words == 0 {
		out.Words = 1
	}
	if out.Depth == 0 {
		out.Depth = 6
	}
	if out.Workers < 1 {
		out.Workers = 1
	}
	if out.MaxStates == 0 {
		out.MaxStates = 1 << 21
	}
	if out.Protocol != nil && out.Protocol.Features().OneWordBlocks {
		out.Words = 1
	}
	return out
}

// ProgressInfo is the per-level snapshot passed to Options.Progress.
type ProgressInfo struct {
	// Depth is the just-completed BFS level.
	Depth int
	// States and Transitions are cumulative (across a resume, too).
	States      int64
	Transitions int64
	// StatesPerSec is the exploration rate of this process (states
	// explored since start or resume over wall time).
	StatesPerSec float64
	// RAMBytes is the visited store's in-memory footprint as MemBudget
	// charges it (live tables + sealed fingerprints); SpilledBytes and
	// SpillRuns describe the sealed runs on disk (zero without
	// MemBudget).
	RAMBytes     int64
	SpilledBytes int64
	SpillRuns    int
}

// ActionKind discriminates the two step families.
type ActionKind uint8

const (
	// ActOp is a processor operation (read/write/lock/...).
	ActOp ActionKind = iota
	// ActEvict victimizes a block from a cache, exercising writeback
	// and lock-purge obligations.
	ActEvict
)

// Action is one atomic step of the model: a processor either performs
// one memory operation to completion (bus transactions included) or
// evicts a block from its cache.
type Action struct {
	Proc  int
	Kind  ActionKind
	Op    protocol.Op
	Block uint64
	Word  int
	Value uint64
}

// String renders the action for counterexample traces.
func (a Action) String() string {
	if a.Kind == ActEvict {
		return fmt.Sprintf("p%d evict b%d", a.Proc, a.Block)
	}
	switch a.Op {
	case protocol.OpRead, protocol.OpReadEx, protocol.OpLock:
		return fmt.Sprintf("p%d %s b%d.%d", a.Proc, a.Op, a.Block, a.Word)
	default:
		return fmt.Sprintf("p%d %s b%d.%d=%d", a.Proc, a.Op, a.Block, a.Word, a.Value)
	}
}

// MarshalJSON renders the action in trace notation ("p0 write
// b0.0=1") — counterexample JSON is a human-facing summary.
func (a Action) MarshalJSON() ([]byte, error) {
	return json.Marshal(a.String())
}

// Counterexample is a shortest violating operation sequence.
type Counterexample struct {
	Trace      []Action `json:"trace"`
	Violations []string `json:"violations"`
}

// ObservedArc is one exercised transition of the acting cache: the
// pre-state of its line, the operation, and the outcome in Figure 10
// notation ("->R.S.C" for a silent transition, "bus:readx+lock" for a
// bus request).
type ObservedArc struct {
	State   protocol.State
	Op      protocol.Op
	Outcome string
}

// Result summarizes one exploration.
type Result struct {
	Protocol       string          `json:"protocol"`
	Procs          int             `json:"procs"`
	Blocks         int             `json:"blocks"`
	Words          int             `json:"words"`
	Depth          int             `json:"depth"`
	Workers        int             `json:"workers"`
	Symmetry       bool            `json:"symmetry"`
	POR            bool            `json:"por,omitempty"`
	States         int64           `json:"states"`
	Transitions    int64           `json:"transitions"`
	DepthReached   int             `json:"depth_reached"`
	Exhausted      bool            `json:"exhausted"` // frontier emptied before the depth bound
	Truncated      bool            `json:"truncated"` // MaxStates reached
	Elapsed        time.Duration   `json:"elapsed_ns"`
	StatesPerSec   float64         `json:"states_per_sec"`
	Counterexample *Counterexample `json:"counterexample,omitempty"`
	Arcs           []ObservedArc   `json:"-"`

	// Spill statistics, set only when MemBudget was positive. They are
	// deterministic — seals fire at level boundaries from byte counts
	// that do not depend on worker scheduling — so they participate in
	// the byte-identity contracts like every other non-timing field.
	MemBudget     int64 `json:"mem_budget,omitempty"`
	SpilledStates int64 `json:"spilled_states,omitempty"` // states sealed to disk at the end
	SpilledBytes  int64 `json:"spilled_bytes,omitempty"`  // on-disk run bytes at the end
	SpillRuns     int   `json:"spill_runs,omitempty"`     // run files at the end
	SpillSeals    int   `json:"spill_seals,omitempty"`    // seal events over the whole run
}
