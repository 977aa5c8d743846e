// Package exact solves the paper's scheduling problem to proven
// optimality on small trees: minimum makespan on p related-speed
// processors under a global memory cap. It is both a product feature (an
// anytime portfolio candidate) and the repo's strongest correctness tool —
// a ground-truth oracle the heuristics are differentially tested against.
//
// The search is a branch-and-bound over (task-start-order, processor
// assignment) decisions. Three facts keep it tractable on oracle-sized
// trees:
//
//   - Starts only happen at event times. Take the earliest start that is
//     neither at time zero nor at a completion instant and shift it back
//     to the latest event before it: residency is constant on the skipped
//     interval (memory only changes at events, and no event lies inside
//     it), so the task sees exactly the memory it saw before, its own
//     footprint fits where it fit before, and its completion only moves
//     earlier. Iterating start-by-start turns any feasible schedule into
//     an equally good one that branches only at completion events.
//   - Dominance memoization. Two search states with the same
//     done/running sets and the same speed-class assignment of running
//     tasks are comparable: if one has component-wise earlier finish
//     times, no more resident memory and no later clock, every completion
//     reachable from the other is reachable from it at least as early.
//     Dominated states are pruned.
//   - Symmetry breaking. Idle processors of equal speed are
//     interchangeable, so a task only ever branches onto the lowest-index
//     idle processor of each distinct speed class, and tasks started at
//     the same instant are enumerated in one canonical order.
//
// The lower bound at each state is the maximum of the speed-scaled area
// bound (remaining work plus committed busy time over Σ speeds), the
// residual critical-path DP (earliest-completion estimates over the
// unfinished tree at full speed s_max), and the latest running finish.
//
// At p = 1 the problem is polynomial: Liu's exact traversal
// (traversal.Optimal) attains the minimum peak of any schedule, and any
// topological order is makespan-optimal on one processor, so Solve
// answers without searching.
//
// One caveat on zero-work tasks: the simulator replays coincident pulses
// in one canonical (topological) order, and the search only places pulses
// at event instants. On pulse-free trees the event-time restriction is
// lossless (the constant-residency argument above), so Proven means
// optimal over all schedules. On trees with pulses, Proven is relative to
// event-aligned pulse placement — exact for makespan whenever the cap is
// not binding on pulse order, and never unsound: every returned schedule
// is re-measured by the simulator before being returned.
package exact

import (
	"errors"
	"fmt"
	"math"

	"treesched/internal/machine"
	"treesched/internal/sched"
	"treesched/internal/traversal"
	"treesched/internal/tree"
)

// MaxSolveNodes bounds the tree size the branch-and-bound accepts: search
// state is packed into 64-bit node masks. The p = 1 fast path is exempt —
// it answers polynomially at any size.
const MaxSolveNodes = 64

// DefaultNodeBudget is the search budget of Solve when the caller passes
// 0: the number of explored decision nodes, not wall-clock time, so runs
// are deterministic across machines and repetitions.
const DefaultNodeBudget int64 = 1 << 21 // ~2.1M nodes

// ErrInfeasible is wrapped by Solve when no schedule can respect the
// memory cap: by the paper's linearization lemma, every p-processor
// schedule needs at least the optimal sequential traversal's peak, so a
// cap below Liu's optimum is provably hopeless.
var ErrInfeasible = errors.New("exact: no schedule fits the memory cap")

// Result is the outcome of an exact solve.
type Result struct {
	// Schedule is the best schedule found; optimal iff Proven. It always
	// respects the memory cap. Never nil on a nil error.
	Schedule *sched.Schedule
	// Makespan and Peak are the schedule's exact measures (Peak equals
	// what sched.Evaluate reports for Schedule, by construction: the
	// solver's internal accounting replays the simulator's event order).
	Makespan float64
	Peak     int64
	// Proven reports that the branch-and-bound exhausted the search space
	// within its node budget: Makespan is the true optimum, not merely
	// the best schedule found.
	Proven bool
	// Explored counts branch-and-bound decision nodes (0 when the p=1
	// fast path answered without searching). Pruned counts decision nodes
	// cut by the lower bound, MemoHits those cut by dominance
	// memoization; together they say where the search's leverage came
	// from.
	Explored int64
	Pruned   int64
	MemoHits int64
	// LowerBound is the root relaxation: max of the speed-scaled area
	// bound and the critical path at full speed. Makespan >= LowerBound
	// always; equality does not imply Proven (nor vice versa).
	LowerBound float64
}

// Solve computes a minimum-makespan schedule of t on m under the global
// memory cap (math.MaxInt64 for none). nodeBudget bounds the search in
// explored decision nodes (0 means DefaultNodeBudget); if the budget runs
// out the best schedule found so far is returned with Proven == false.
// Trees larger than MaxSolveNodes and caps below the provable memory
// floor are errors.
func Solve(t *tree.Tree, m *machine.Model, cap int64, nodeBudget int64) (*Result, error) {
	if t == nil || t.Len() == 0 {
		return &Result{Schedule: &sched.Schedule{P: m.P(), M: hetOrNil(m)}, Proven: true}, nil
	}
	return SolvePre(sched.NewPrecompute(t), m, cap, nodeBudget)
}

// SolvePre is Solve for callers that already hold the tree's
// sched.Precompute (the portfolio racer), so the heuristic seeds reuse
// the shared traversal instead of recomputing it.
func SolvePre(pc *sched.Precompute, m *machine.Model, cap int64, nodeBudget int64) (*Result, error) {
	t := pc.Tree()
	if t == nil || t.Len() == 0 {
		return &Result{Schedule: &sched.Schedule{P: m.P(), M: hetOrNil(m)}, Proven: true}, nil
	}
	if cap < 0 {
		return nil, fmt.Errorf("exact: memory cap must be >= 0, got %d", cap)
	}
	if nodeBudget < 0 {
		return nil, fmt.Errorf("exact: node budget must be >= 0, got %d", nodeBudget)
	}
	if nodeBudget == 0 {
		nodeBudget = DefaultNodeBudget
	}
	opt := traversal.Optimal(t)
	if opt.Peak > cap {
		return nil, fmt.Errorf("%w: cap %d is below the optimal sequential peak %d (tree %s)",
			ErrInfeasible, cap, opt.Peak, t)
	}

	if m.P() == 1 {
		// One processor: the problem is polynomial at any tree size, so
		// answer before the MaxSolveNodes gate. Any topological order is
		// makespan-optimal (the processor is never idle: some task is
		// always ready), and Liu's traversal is peak-optimal among them,
		// so the optimal sequential traversal is the proven answer. On
		// trees with zero-work tasks the simulator's canonical pulse
		// linearization can replay the order to a higher peak than the
		// traversal's step model; if that breaks the cap, fall through to
		// the search, which enumerates event-aligned pulse placements.
		s, err := sched.SequentialSchedule(t, m, opt.Order)
		if err != nil {
			return nil, err
		}
		mk, peak, err := sched.Evaluate(t, s)
		if err != nil {
			return nil, err
		}
		if peak <= cap {
			return &Result{Schedule: s, Makespan: mk, Peak: peak, Proven: true,
				LowerBound: sched.MakespanLowerBoundOn(t, m)}, nil
		}
	}

	if t.Len() > MaxSolveNodes {
		return nil, fmt.Errorf("exact: tree has %d nodes, solver limit is %d", t.Len(), MaxSolveNodes)
	}
	seed, seedMk, seedPeak := seedIncumbent(pc, m, cap, opt.Order)

	sv := newSolver(t, m, cap, nodeBudget)
	sv.best = seedMk
	rootLB := sv.lowerBound(0)
	if rootLB < seedMk { // seed not provably optimal: search
		sv.search()
	}
	res := &Result{
		Makespan:   seedMk,
		Peak:       seedPeak,
		Schedule:   seed,
		Proven:     !sv.aborted,
		Explored:   sv.explored,
		Pruned:     sv.pruned,
		MemoHits:   sv.memoHits,
		LowerBound: rootLB,
	}
	if sv.improved {
		res.Makespan = sv.best
		res.Peak = sv.bestPeak
		res.Schedule = sv.bestSchedule(m)
	}
	if res.Schedule == nil {
		// No heuristic seed fit the cap (possible only on trees with
		// zero-work tasks, whose canonical coincident-pulse order can
		// replay above the traversal's peak) and the search found nothing
		// either. Never claim ErrInfeasible here: the search places pulses
		// only at event instants, so exhaustion proves nothing about
		// schedules that spread pulses between events.
		if sv.aborted {
			return nil, fmt.Errorf("exact: node budget %d exhausted without finding a schedule within memory cap %d", nodeBudget, cap)
		}
		return nil, fmt.Errorf("exact: found no event-aligned schedule within memory cap %d (zero-work tasks constrain the pulse order at shared instants)", cap)
	}
	// Safety net: the returned schedule must stand on its own. A
	// discrepancy here is a solver bug, never a caller error.
	mk, peak, err := sched.Evaluate(t, res.Schedule)
	if err != nil {
		return nil, fmt.Errorf("exact: internal error: produced an invalid schedule: %v", err)
	}
	if mk != res.Makespan || peak != res.Peak {
		return nil, fmt.Errorf("exact: internal error: schedule measures (%g, %d) disagree with search (%g, %d)",
			mk, peak, res.Makespan, res.Peak)
	}
	return res, nil
}

// seedIncumbent warms the branch-and-bound with the best cap-feasible
// heuristic schedule, in a fixed candidate order so the anytime result is
// deterministic. The optimal sequential traversal is always feasible
// (its peak is the proven floor), so a seed always exists.
func seedIncumbent(pc *sched.Precompute, m *machine.Model, cap int64, liuOrder []int) (*sched.Schedule, float64, int64) {
	t := pc.Tree()
	var best *sched.Schedule
	bestMk := math.Inf(1)
	var bestPeak int64
	consider := func(s *sched.Schedule, err error) {
		if err != nil || s == nil {
			return
		}
		mk, peak, err := sched.Evaluate(t, s)
		if err != nil || peak > cap || mk >= bestMk {
			return
		}
		best, bestMk, bestPeak = s, mk, peak
	}
	s, err := sched.SequentialSchedule(t, m, liuOrder)
	consider(s, err)
	for _, id := range []sched.HeuristicID{
		sched.IDParSubtrees, sched.IDParSubtreesOptim,
		sched.IDParInnerFirst, sched.IDParDeepestFirst, sched.IDSequential,
	} {
		s, err := pc.Run(id, m, cap)
		consider(s, err)
	}
	if cap >= pc.MSeq() {
		for _, id := range []sched.HeuristicID{sched.IDMemCapped, sched.IDMemCappedBooking} {
			s, err := pc.Run(id, m, cap)
			consider(s, err)
		}
	}
	return best, bestMk, bestPeak
}

func hetOrNil(m *machine.Model) *machine.Model {
	if m.IsUniform() {
		return nil
	}
	return m
}
