package sched

import (
	"treesched/internal/machine"
	"treesched/internal/tree"
)

// Heuristic is a named tree-scheduling algorithm. Run schedules on the
// paper's uniform machine of p processors; RunOn (when set — every
// heuristic built by Options carries it) schedules on an explicit machine
// model, reducing to Run on a uniform model.
type Heuristic struct {
	ID    HeuristicID
	Name  string
	Run   func(t *tree.Tree, p int) (*Schedule, error)
	RunOn func(t *tree.Tree, m *machine.Model) (*Schedule, error)
}

// Heuristics returns the four heuristics evaluated in the paper, in the
// order of Table 1.
func Heuristics() []Heuristic {
	hs := make([]Heuristic, 0, 4)
	for _, id := range PaperHeuristics() {
		hs = append(hs, Options{}.heuristic(id, nil, nil))
	}
	return hs
}

// ByName returns the heuristic with the given name, or false if unknown.
// Recognized names additionally include the ablation variant
// "ParInnerFirstArbitrary" and the sequential baselines "Sequential" (the
// memory-optimal postorder on one processor) and "OptimalSequential"
// (Liu's exact optimal traversal). The memory-capped schedulers need a cap
// parameter and are only reachable through Options; the pseudo-heuristics
// "Auto" and "Exact" are only reachable through internal/portfolio (and,
// for Exact, internal/exact).
func ByName(name string) (Heuristic, bool) {
	id, err := ParseHeuristic(name)
	if err != nil || id == IDMemCapped || id == IDMemCappedBooking || id == IDAuto || id == IDExact {
		return Heuristic{}, false
	}
	return Options{}.heuristic(id, nil, nil), true
}
