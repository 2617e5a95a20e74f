package mcheck

import (
	"sort"
	"time"
)

// Partial-order reduction.
//
// Every action in the model touches exactly one block: a processor
// operation or eviction on block b reads and writes only block b's
// cache lines, memory words, lock tag, and shadow state (the packed
// key is block-major — see keyLayout — so this is visible in the
// encoding: an action on block b changes only block b's key section).
// Every invariant checked is likewise per-block. Actions on different
// blocks therefore commute, and any trace is equivalent — same final
// state, same per-block verdicts — to a reordering that groups each
// block's actions together.
//
// One exception: a protocol whose invalid lines keep their tag for
// snooping (rudolph) may fill block b into the frame of another
// block's tag-only line, dropping that line's tag from the other
// block's key section (Cache.PrepareFill; the journal records it).
// Within block b's sub-run every other block stays at the root, which
// holds no frame, so no sub-run takes that path; the argument above no
// longer covers rudolph, and its reduction rests on measurement
// instead: its POR state counts equal the full run's pure-state counts
// at p3/b2 (TestPOREquivalence at depth 4, and through depth 7 when
// this exception was written down).
//
// The reduction exploits this by never exploring a state with two
// modified blocks: it runs one kernel pass per block with expansion
// restricted to that block's actions (the session's porBlock filter)
// and takes the union. Soundness and counterexample exactness:
//
//   - A shortest violating trace only contains actions on the violated
//     block: dropping the other blocks' actions leaves the violation
//     intact (per-block invariants + commutation) and any strictly
//     off-block violation would itself be shorter. So block b's
//     sub-run finds a violation at depth d iff the full run has a
//     violating candidate on block b at depth d, and the first
//     violating level is the min over blocks.
//   - Within a sub-run, the frontier at each level is exactly the full
//     run's pure-b states (states whose key differs from the root only
//     in block b's section) in the full run's relative order: frontier
//     order is (table shard, key), which is intrinsic to the states.
//     Action indices stay relative to the full action list. Stored
//     parent edges — least (frontier, action) — therefore coincide
//     with the full run's, and the rebuilt (and de-canonicalized)
//     trace is byte-identical.
//   - Across sub-runs, the winning violation is the least (depth,
//     WireOrd) — the same tiebreak the unreduced BFS applies to
//     simultaneous violations, evaluated on intrinsic state data
//     instead of frontier positions so it is comparable between runs.
//
// Counts cover the union of the sub-runs: every non-root state of
// sub-run b has block b modified, so the unions are disjoint and
// States = 1 + Σ(states_b − 1); Transitions is the sum; DepthReached
// the max (or the winning violation's depth); Exhausted requires every
// sub-run exhausted; MaxStates is a shared budget consumed in block
// order. The differential test (TestPOREquivalence) checks verdicts
// and counterexamples against unreduced runs for every protocol, and
// that the reduced state set is exactly the full run's pure states.

// runPOR explores each block's subsystem with a separate restricted
// BFS and merges the results. o has defaults applied and is validated.
func runPOR(o Options) (*Result, error) {
	start := time.Now()
	res := &Result{
		Protocol: o.Protocol.Name(),
		Procs:    o.Procs, Blocks: o.Blocks, Words: o.Words,
		Depth: o.Depth, Workers: o.Workers, Symmetry: o.Symmetry,
		POR: true,
	}
	finalize := func() *Result {
		res.Elapsed = time.Since(start)
		if s := res.Elapsed.Seconds(); s > 0 {
			res.StatesPerSec = float64(res.States) / s
		}
		return res
	}

	type found struct {
		depth int
		ord   WireOrd
		cex   *Counterexample
	}
	var best *found
	depthLimit := o.Depth
	exhausted := true
	var arcRuns [][]ObservedArc

	// Checkpointing: each sub-run checkpoints under block-<b>/ and the
	// accumulator persists completed clean blocks' numbers, so a
	// resumed POR check replays neither. On completion (done) the whole
	// POR checkpoint is removed. A violation stops persistence — see
	// checkpoint.go.
	var acc *porAccum
	done := false
	if o.CheckpointDir != "" {
		var err error
		acc, err = loadPORAccum(o)
		if err != nil {
			return nil, err
		}
		defer func() {
			if done {
				finishPOR(o.CheckpointDir)
			}
		}()
		for i := range acc.Blocks {
			br := &acc.Blocks[i]
			if i == 0 {
				res.States = br.States
			} else {
				res.States += br.States - 1
			}
			res.Transitions += br.Transitions
			if br.Truncated {
				res.Truncated = true
			}
			if br.DepthReached > res.DepthReached {
				res.DepthReached = br.DepthReached
			}
			if !br.Exhausted {
				exhausted = false
			}
			res.SpilledStates += br.SpilledStates
			res.SpilledBytes += br.SpilledBytes
			res.SpillRuns += br.SpillRuns
			res.SpillSeals += br.SpillSeals
		}
	}
	finish := func() *Result {
		done = true
		if o.MemBudget > 0 {
			res.MemBudget = o.MemBudget
		}
		return finalize()
	}
	startBlock := 0
	if acc != nil {
		startBlock = len(acc.Blocks)
	}

	for b := startBlock; b < o.Blocks; b++ {
		so := o
		so.POR = false
		so.Depth = depthLimit
		if acc == nil {
			// Either checkpointing is off, or a violation ended
			// persistence; sub-runs from here on run unchckpointed.
			so.CheckpointDir = ""
			so.Resume = false
		}
		// Sub-runs share one MaxStates budget; the root is counted
		// once globally but revisited by every sub-run.
		so.MaxStates = o.MaxStates - int(res.States) + 1
		if b > 0 && so.MaxStates <= 1 {
			res.Truncated = true
			break
		}
		if o.stateHook != nil && b > 0 {
			// Later sub-runs re-seed the shared root; report only their
			// fresh (pure-b, hence globally new) states.
			hook, skipRoot := o.stateHook, true
			so.stateHook = func(key []uint64) {
				if skipRoot {
					skipRoot = false
					return
				}
				hook(key)
			}
		}
		if o.Progress != nil {
			prevS, prevT := res.States, res.Transitions
			rootDup := int64(0)
			if b > 0 {
				rootDup = 1
			}
			so.Progress = func(p ProgressInfo) {
				p.States = prevS + p.States - rootDup
				p.Transitions = prevT + p.Transitions
				o.Progress(p)
			}
		}
		sub, viol, err := runLocal(so, b)
		if err != nil {
			return nil, err
		}
		if b == 0 {
			res.States = sub.States
		} else {
			res.States += sub.States - 1
		}
		res.Transitions += sub.Transitions
		if sub.Truncated {
			res.Truncated = true
		}
		if sub.DepthReached > res.DepthReached {
			res.DepthReached = sub.DepthReached
		}
		if sub.Counterexample == nil && !sub.Exhausted {
			exhausted = false
		}
		res.SpilledStates += sub.SpilledStates
		res.SpilledBytes += sub.SpilledBytes
		res.SpillRuns += sub.SpillRuns
		res.SpillSeals += sub.SpillSeals
		if sub.Arcs != nil {
			arcRuns = append(arcRuns, sub.Arcs)
		}
		if sub.Counterexample != nil {
			if len(sub.Counterexample.Trace) == 0 {
				// Root violation: every sub-run reports it identically.
				res.Counterexample = sub.Counterexample
				res.States = 1
				res.DepthReached = 0
				res.Truncated = false
				return finish(), nil
			}
			f := found{depth: sub.DepthReached, ord: viol.Ord, cex: sub.Counterexample}
			if best == nil || f.depth < best.depth || f.depth == best.depth && f.ord.compare(best.ord) < 0 {
				best = &f
			}
			// No later sub-run can beat a violation at this depth with
			// one at a greater depth, so tighten the bound.
			depthLimit = min(depthLimit, f.depth)
			acc = nil
		} else if acc != nil {
			acc.Blocks = append(acc.Blocks, porBlockResult{
				States: sub.States, Transitions: sub.Transitions,
				DepthReached: sub.DepthReached, Truncated: sub.Truncated,
				Exhausted:     sub.Exhausted,
				SpilledStates: sub.SpilledStates, SpilledBytes: sub.SpilledBytes,
				SpillRuns: sub.SpillRuns, SpillSeals: sub.SpillSeals,
			})
			if err := acc.save(); err != nil {
				return nil, err
			}
		}
	}

	if best != nil {
		res.Counterexample = best.cex
		res.DepthReached = best.depth
	} else {
		res.Exhausted = exhausted && !res.Truncated
	}
	if o.RecordArcs {
		res.Arcs = mergeArcs(arcRuns)
	}
	return finish(), nil
}

// mergeArcs unions per-run observed arcs, first sighting winning —
// across a run's workers and across POR blocks alike.
func mergeArcs(runs [][]ObservedArc) []ObservedArc {
	seen := make(map[arcKey]struct{})
	var out []ObservedArc
	for _, run := range runs {
		for _, a := range run {
			key := arcKey{state: a.State, op: a.Op}
			if _, ok := seen[key]; ok {
				continue
			}
			seen[key] = struct{}{}
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].State != out[j].State {
			return out[i].State < out[j].State
		}
		return out[i].Op < out[j].Op
	})
	return out
}
