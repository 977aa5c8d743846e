package sched

import (
	"fmt"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// uniformChecked maps a bare processor count to the paper's uniform
// machine, with the historical validation error.
func uniformChecked(p int) (*machine.Model, error) {
	if p < 1 {
		return nil, fmt.Errorf("sched: need at least one processor, got %d", p)
	}
	return machine.Uniform(p), nil
}

// ParInnerFirst is the parallel-postorder heuristic of paper §5.2, built on
// the list scheduler: ready inner nodes always precede ready leaves; inner
// nodes are ordered by non-increasing depth; leaves follow the
// memory-optimal sequential postorder. Being a list scheduling, it is a
// (2-1/p)-approximation for the makespan; its memory use is unbounded
// relative to M_seq (paper Fig. 4).
func ParInnerFirst(t *tree.Tree, p int) (*Schedule, error) {
	return NewPrecompute(t).ParInnerFirst(p)
}

// ParInnerFirst is the precompute-sharing form of the package-level
// function: σ, the depths and the priority ranking are computed once per
// tree and reused across calls and processor counts.
func (pc *Precompute) ParInnerFirst(p int) (*Schedule, error) {
	m, err := uniformChecked(p)
	if err != nil {
		return nil, err
	}
	return pc.ParInnerFirstOn(m)
}

// ParInnerFirstOn is ParInnerFirst on an explicit machine model (see
// machine.Model); on a uniform model it is byte-identical to the
// processor-count form.
func (pc *Precompute) ParInnerFirstOn(m *machine.Model) (*Schedule, error) {
	return listScheduleRank(pc.t, m, pc.rankInnerFirst())
}

// ParInnerFirstArbitrary is ParInnerFirst with an arbitrary (natural index)
// leaf order instead of the optimal sequential postorder. It exists as the
// ablation baseline for the role of the input order O in Algorithm 3 — its
// ranking needs no traversal at all, so this entry point skips the
// precompute's postorder DP entirely.
func ParInnerFirstArbitrary(t *tree.Tree, p int) (*Schedule, error) {
	m, err := uniformChecked(p)
	if err != nil {
		return nil, err
	}
	depth, leaf := depthsAndLeaves(t)
	return listScheduleRank(t, m, innerFirstRanks(depth, leaf, nil))
}

// ParInnerFirstArbitrary is the precompute-sharing form of the
// package-level function.
func (pc *Precompute) ParInnerFirstArbitrary(p int) (*Schedule, error) {
	m, err := uniformChecked(p)
	if err != nil {
		return nil, err
	}
	return pc.ParInnerFirstArbitraryOn(m)
}

// ParInnerFirstArbitraryOn is ParInnerFirstArbitrary on an explicit
// machine model.
func (pc *Precompute) ParInnerFirstArbitraryOn(m *machine.Model) (*Schedule, error) {
	return listScheduleRank(pc.t, m, pc.rankInnerFirstArbitrary())
}

// ParDeepestFirst is the makespan-focused heuristic of paper §5.3: ready
// nodes are ordered by non-increasing w-weighted distance to the root
// (including their own w — the deepest node starts the critical path), with
// inner nodes before leaves and the optimal sequential postorder breaking
// remaining ties. Its memory use is unbounded relative to M_seq
// (paper Fig. 5).
func ParDeepestFirst(t *tree.Tree, p int) (*Schedule, error) {
	return NewPrecompute(t).ParDeepestFirst(p)
}

// ParDeepestFirst is the precompute-sharing form of the package-level
// function.
func (pc *Precompute) ParDeepestFirst(p int) (*Schedule, error) {
	m, err := uniformChecked(p)
	if err != nil {
		return nil, err
	}
	return pc.ParDeepestFirstOn(m)
}

// ParDeepestFirstOn is ParDeepestFirst on an explicit machine model. The
// priority ranking stays the w-weighted depth of the tree (speeds scale
// execution, not the critical-path structure); the machine decides which
// processor a ready task lands on and how long it runs.
func (pc *Precompute) ParDeepestFirstOn(m *machine.Model) (*Schedule, error) {
	return listScheduleRank(pc.t, m, pc.rankDeepestFirst())
}
