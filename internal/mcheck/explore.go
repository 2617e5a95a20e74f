package mcheck

import (
	"fmt"

	"cachesync/internal/addr"
)

// step applies one action and validates the resulting state — only
// the blocks the step wrote on a machine with scopeChecks, every block
// otherwise. It is applyStep followed by checkStep; the expand workers
// call the halves apart, to run the suite only on states new to them.
func (m *machine) step(a Action) []string {
	sr, v := m.applyStep(a)
	if v != nil {
		return v
	}
	blocks := m.universe
	if m.journal != nil {
		blocks = m.stepBlocks(a)
	}
	return m.checkStep(blocks, a, sr)
}

// applyStep is step's apply half: it applies a and commits its shadow
// write, turning executor panics and livelocks into reported
// violations (a broken — possibly fault-injected — protocol may drive
// the engine anywhere). After such a failure only restoreKey is known
// to bring the machine back.
func (m *machine) applyStep(a Action) (sr stepResult, violations []string) {
	defer func() {
		if r := recover(); r != nil {
			violations = []string{panicViolation(a, r)}
		}
	}()
	sr, err := m.apply(a)
	if err != nil {
		return sr, []string{err.Error()}
	}
	m.commitShadow(a, sr)
	return sr, nil
}

// checkStep is step's check half: the invariant suite over blocks
// (checkBlocks), with a panic reported as a violation too.
func (m *machine) checkStep(blocks []addr.Block, a Action, sr stepResult) (violations []string) {
	defer func() {
		if r := recover(); r != nil {
			violations = []string{panicViolation(a, r)}
		}
	}()
	return m.checkBlocks(blocks, a, sr)
}

func panicViolation(a Action, r any) string {
	return fmt.Sprintf("panic during %s: %v", a, r)
}

// Run explores every interleaving of processor operations up to
// opts.Depth steps with a level-synchronized parallel BFS over packed
// binary state keys — canonicalized under processor symmetry when
// opts.Symmetry is set. It is RunSharded over one in-process session
// (shard.go), so the same guarantees hold: levels are explored in
// order and the violating transition is chosen by least ordinal, so
// the returned counterexample — if any — is a shortest violating
// sequence, and the whole result is deterministic for any worker
// count.
func Run(opts Options) (*Result, error) {
	o := opts.withDefaults()
	if err := validate(o); err != nil {
		return nil, err
	}
	return runLocal(o)
}

func validate(o Options) error {
	if o.Protocol == nil {
		return fmt.Errorf("mcheck: Options.Protocol is required")
	}
	if o.Procs < 1 || o.Procs > 8 {
		return fmt.Errorf("mcheck: procs %d out of range [1,8]", o.Procs)
	}
	if o.Blocks < 1 || o.Blocks > 4 {
		return fmt.Errorf("mcheck: blocks %d out of range [1,4]", o.Blocks)
	}
	if o.MemBudget < 0 {
		return fmt.Errorf("mcheck: negative mem budget %d", o.MemBudget)
	}
	if o.Resume && o.CheckpointDir == "" {
		return fmt.Errorf("mcheck: Resume requires CheckpointDir")
	}
	if o.CheckpointDir != "" && o.RecordArcs {
		return fmt.Errorf("mcheck: RecordArcs does not compose with checkpointing (arcs are not serialized)")
	}
	return nil
}

// runLocal is one kernel pass over a single in-process session. On
// top of the level loop it adds what only an in-process run has — the
// store's footprint in Progress, the spill statistics, the observed
// arcs — and owns the checkpoint's lifecycle: a directory that already
// holds one is refused without Resume, and the checkpoint is deleted
// once the run completes, whatever the verdict; on error it stays for
// a retry.
func runLocal(o Options) (*Result, error) {
	s := newSession(o, 0, 1)
	defer s.Close()
	if dir := o.CheckpointDir; dir != "" {
		if err := s.SetCheckpointDir(dir, o.Resume); err != nil {
			return nil, err
		}
		s.ck.keepDir = true
		if !o.Resume && s.ck.exists() {
			return nil, fmt.Errorf("mcheck: %s already holds a checkpoint; pass Resume to continue it or use a fresh directory", dir)
		}
	}
	if prog := o.Progress; prog != nil {
		o.Progress = func(p ProgressInfo) {
			p.RAMBytes = s.st.ramBytes()
			p.SpilledBytes = s.st.spilledBytes()
			p.SpillRuns = s.st.runCount()
			prog(p)
		}
	}
	res, err := explore(o, []ShardPeer{s})
	if err != nil {
		return nil, err
	}
	if o.suiteHook != nil {
		o.suiteHook(s.suiteRuns())
	}
	if o.MemBudget > 0 {
		res.MemBudget = o.MemBudget
		res.SpilledStates = s.st.spilledStates()
		res.SpilledBytes = s.st.spilledBytes()
		res.SpillRuns = s.st.runCount()
		res.SpillSeals = s.st.seals
	}
	if o.RecordArcs {
		runs := make([][]ObservedArc, len(s.workers))
		for i, w := range s.workers {
			runs[i] = w.m.sortedArcs()
		}
		res.Arcs = mergeArcs(runs)
	}
	s.DiscardCheckpoint()
	return res, nil
}
