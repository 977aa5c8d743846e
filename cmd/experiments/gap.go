package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"text/tabwriter"

	"treesched/internal/exact"
	"treesched/internal/machine"
	"treesched/internal/sched"
	"treesched/internal/tree"
)

// runGapStudy is E19: the optimality-gap ledger. The branch-and-bound of
// internal/exact proves minimum makespans on a population of small trees
// (every generator family × sizes {6, 8, 10} × 3 seeds — the dataset
// collection's trees are far beyond exact reach), and every heuristic is
// measured against the optimum of the constraint it actually honors:
//
//   - the uncapped heuristics against the uncapped optimum, at p ∈ {2, 4};
//   - the capped pair (MemCapped, MemCappedBooking) against the optimum
//     under the same cap, sweeping cap factors {1.0, 1.5, 2.0} × p ∈ {2, 4}.
//
// Gaps are makespan ratios (1.0 = heuristic found an optimum). Instances
// the search cannot close within the node budget are skipped and counted.
func runGapStudy(seed int64) {
	const budget = int64(1 << 20)
	trees := gapStudyTrees(seed)
	procs := []int{2, 4}
	factors := []float64{1.0, 1.5, 2.0}

	uncapped := []sched.HeuristicID{
		sched.IDParSubtrees, sched.IDParSubtreesOptim,
		sched.IDParInnerFirst, sched.IDParDeepestFirst,
		sched.IDParInnerFirstArbitrary,
		sched.IDSequential, sched.IDOptimalSequential,
	}
	capped := []sched.HeuristicID{sched.IDMemCapped, sched.IDMemCappedBooking}

	type cell struct {
		sum, worst float64
		optimal, n int
	}
	// Uncapped: heuristic × p. Capped: heuristic × p × factor.
	uc := make(map[sched.HeuristicID]map[int]*cell)
	cc := make(map[sched.HeuristicID]map[int]map[float64]*cell)
	for _, id := range uncapped {
		uc[id] = map[int]*cell{}
		for _, p := range procs {
			uc[id][p] = &cell{}
		}
	}
	for _, id := range capped {
		cc[id] = map[int]map[float64]*cell{}
		for _, p := range procs {
			cc[id][p] = map[float64]*cell{}
			for _, f := range factors {
				cc[id][p][f] = &cell{}
			}
		}
	}
	observe := func(c *cell, mk, opt float64) {
		g := mk / opt
		c.sum += g
		if g > c.worst {
			c.worst = g
		}
		if mk == opt {
			c.optimal++
		}
		c.n++
	}

	solves, proved := 0, 0
	for _, t := range trees {
		pc := sched.NewPrecompute(t)
		for _, p := range procs {
			m := machine.Uniform(p)
			solves++
			free, err := exact.SolvePre(pc, m, math.MaxInt64, budget)
			if err != nil {
				fatal(err)
			}
			if free.Proven {
				proved++
				for _, id := range uncapped {
					s, err := pc.Run(id, m, 0)
					if err != nil {
						fatal(err)
					}
					observe(uc[id][p], s.Makespan(t), free.Makespan)
				}
			}
			for _, f := range factors {
				cap := sched.CapFromFactor(f, pc.MSeq())
				solves++
				res, err := exact.SolvePre(pc, m, cap, budget)
				if err != nil {
					fatal(err)
				}
				if !res.Proven {
					continue
				}
				proved++
				for _, id := range capped {
					s, err := pc.Run(id, m, cap)
					if err != nil {
						fatal(err)
					}
					observe(cc[id][p][f], s.Makespan(t), res.Makespan)
				}
			}
		}
	}

	fmt.Println("== E19: optimality gaps against the exact branch-and-bound ==")
	fmt.Printf("%d small trees (families × sizes 6/8/10 × 3 seeds), %d exact solves, %d proved, budget %d nodes\n\n",
		len(trees), solves, proved, budget)

	fmt.Printf("Uncapped heuristics vs the uncapped optimum (gap = makespan/optimum):\n")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "heuristic\tp=2 mean\tp=2 worst\tp=2 opt\tp=4 mean\tp=4 worst\tp=4 opt\n")
	for _, id := range uncapped {
		fmt.Fprintf(tw, "%s", id)
		for _, p := range procs {
			c := uc[id][p]
			fmt.Fprintf(tw, "\t%.3f\t%.3f\t%d/%d", c.sum/float64(c.n), c.worst, c.optimal, c.n)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Printf("\nCapped heuristics vs the optimum under the same cap (cap = ceil(f × M_seq)):\n")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "heuristic\tp\tf=1.0 mean/worst\tf=1.5 mean/worst\tf=2.0 mean/worst\n")
	for _, id := range capped {
		for _, p := range procs {
			fmt.Fprintf(tw, "%s\tp=%d", id, p)
			for _, f := range factors {
				c := cc[id][p][f]
				fmt.Fprintf(tw, "\t%.3f / %.3f (%d/%d opt)", c.sum/float64(c.n), c.worst, c.optimal, c.n)
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	fmt.Println()
}

// gapStudyTrees generates the E19 population: deterministic in seed, all
// within the exact solver's node limit.
func gapStudyTrees(seed int64) []*tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	ws := tree.WeightSpec{WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20}
	families := []func(n int) *tree.Tree{
		func(n int) *tree.Tree { return tree.RandomAttachment(rng, n, ws) },
		func(n int) *tree.Tree { return tree.RandomPrufer(rng, n, ws) },
		func(n int) *tree.Tree { return tree.RandomBinary(rng, n, ws) },
		func(n int) *tree.Tree { return tree.Chain(rng, n, ws) },
		func(n int) *tree.Tree { return tree.Fork(rng, n, ws) },
		func(n int) *tree.Tree { return tree.Caterpillar(rng, n/3, 2, ws) },
	}
	var trees []*tree.Tree
	for _, gen := range families {
		for _, n := range []int{6, 8, 10} {
			for r := 0; r < 3; r++ {
				trees = append(trees, gen(n))
			}
		}
	}
	return trees
}
