package sched

import (
	"fmt"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// Heuristic is a named tree-scheduling algorithm. RunOn schedules a tree on
// an explicit machine model; Run is RunOn on the paper's uniform machine of
// p processors.
type Heuristic struct {
	ID    HeuristicID
	Name  string
	RunOn func(t *tree.Tree, m *machine.Model) (*Schedule, error)
}

// Run schedules t on the paper's uniform machine of p processors.
func (h Heuristic) Run(t *tree.Tree, p int) (*Schedule, error) {
	m, err := uniformChecked(p)
	if err != nil {
		return nil, err
	}
	return h.RunOn(t, m)
}

// uniformChecked maps a bare processor count to the paper's uniform
// machine, with the historical validation error.
func uniformChecked(p int) (*machine.Model, error) {
	if p < 1 {
		return nil, fmt.Errorf("sched: need at least one processor, got %d", p)
	}
	return machine.Uniform(p), nil
}

// Heuristics returns the four heuristics evaluated in the paper, in the
// order of Table 1. Each call builds the tree's Precompute afresh; callers
// scheduling one tree more than once should build one Precompute and use
// Options.SelectPre or Precompute.Run.
func Heuristics() []Heuristic {
	hs := make([]Heuristic, 0, 4)
	for _, id := range PaperHeuristics() {
		hs = append(hs, unbound(id))
	}
	return hs
}

// ByName returns the heuristic with the given name, or false if unknown.
// Recognized names additionally include the ablation variant
// "ParInnerFirstArbitrary" and the sequential baselines "Sequential" (the
// memory-optimal postorder on one processor) and "OptimalSequential"
// (Liu's exact optimal traversal). The memory-capped schedulers need a cap
// and are only reachable through Options.SelectPre and Precompute.Run; the
// pseudo-heuristics "Auto" and "Exact" are only reachable through
// internal/portfolio (and, for Exact, internal/exact).
func ByName(name string) (Heuristic, bool) {
	id, err := ParseHeuristic(name)
	if err != nil || id.Capped() || id == IDAuto {
		return Heuristic{}, false
	}
	return unbound(id), true
}

// unbound returns uncapped heuristic id bound to no tree: each run builds
// the tree's Precompute.
func unbound(id HeuristicID) Heuristic {
	return Heuristic{ID: id, Name: id.String(),
		RunOn: func(t *tree.Tree, m *machine.Model) (*Schedule, error) {
			return NewPrecompute(t).Run(id, m, 0)
		},
	}
}
