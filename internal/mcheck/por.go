package mcheck

import "sort"

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
// The reduction exploits this by never exploring a state with two
// modified blocks. It is a filter on expansion inside the kernel's one
// BFS pass (ShardSession.expandBlock): the root expands every action,
// and a pure-b state — one whose key differs from the root's only in
// block b's section — expands only block b's actions, whose successors
// are pure-b again or the root. Call sub-run b the search that expands
// only block b's actions from the root; the reduced run is the union
// of the sub-runs, which share only the root. Soundness and
// counterexample exactness:
//
//   - A shortest violating trace only contains actions on the violated
//     block: dropping the other blocks' actions leaves the violation
//     intact (per-block invariants + commutation) and any strictly
//     off-block violation would itself be shorter. So sub-run b finds a
//     violation at depth d iff the full run has a violating candidate
//     on block b at depth d, and the first violating level is the min
//     over blocks.
//   - A pure-b state is reached only through the root and pure-b
//     states, so the level-d frontier restricted to pure-b states is
//     sub-run b's level-d frontier — the full run's pure-b states at
//     depth d — in the same (table shard, key) order, which is
//     intrinsic to the states. Action indices stay relative to the
//     full action list. Stored parent edges — least (frontier, action)
//     — and the WireOrds that pick among simultaneous violations
//     therefore coincide with the full run's, and the rebuilt (and
//     de-canonicalized) trace is byte-identical.
//
// Counts cover the union: States = 1 + Σ(states_b − 1), Transitions is
// the sub-runs' sum (the root's actions split among them by block),
// and MaxStates truncates at a level boundary, as in an unreduced run.
// The differential test (TestPOREquivalence) checks verdicts and
// counterexamples against unreduced runs for every protocol, and that
// the reduced state set is exactly the full run's pure states.
//
// One exception: a protocol whose invalid lines keep their tag for
// snooping (rudolph) may fill block b into the frame of another
// block's tag-only line, dropping that line's tag from the other
// block's key section (Cache.PrepareFill; the journal records it).
// In a pure-b state every other block stays at the root, which holds
// no frame, so the reduced run never takes that path; the argument
// above no longer covers rudolph, and its reduction rests on
// measurement instead: its POR state counts equal the full run's
// pure-state counts at p3/b2 (TestPOREquivalence at depth 4, and
// through depth 7 when this exception was written down).

// mergeArcs unions per-worker observed arcs, first sighting winning.
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
