package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"slices"
	"sort"
	"time"

	"treesched/internal/exact"
	"treesched/internal/machine"
	"treesched/internal/sched"
	"treesched/internal/tree"
)

// The gap suite is the optimality-gap ledger: it proves optima with the
// exact branch-and-bound on a deterministic population of small trees and
// measures every heuristic against them. Two things are gated against the
// checked-in BENCH_gap.json baseline: the exact solver's throughput
// (proved instances per second, ratcheted by -maxratio) and the
// heuristics' worst observed gap (deterministic, so any growth is a
// behavior change, not noise).

// gapProcs and gapCapFactor fix the machine every gap instance runs on:
// two uniform processors under cap = ceil(2 × M_seq), the setting the
// paper's capped heuristics target.
const (
	gapProcs     = 2
	gapCapFactor = 2.0
)

// gapNodeBudget bounds each exact solve in explored decision nodes, so
// the proved count is a deterministic function of (scale, seed) alone.
const gapNodeBudget int64 = 1 << 20

// gapHeuristics is every runnable scheduler measured against the proven
// optimum. The capped pair runs under the suite cap; the rest uncapped.
var gapHeuristics = []sched.HeuristicID{
	sched.IDParSubtrees, sched.IDParSubtreesOptim,
	sched.IDParInnerFirst, sched.IDParDeepestFirst,
	sched.IDParInnerFirstArbitrary,
	sched.IDSequential, sched.IDOptimalSequential,
	sched.IDMemCapped, sched.IDMemCappedBooking,
}

// GapHeuristicStats is the ledger row of one heuristic.
type GapHeuristicStats struct {
	// WorstGap and MeanGap are makespan ratios vs the proven optimum
	// (1.0 = optimal), over proved instances only.
	WorstGap float64 `json:"worst_gap"`
	MeanGap  float64 `json:"mean_gap"`
	// Optimal counts proved instances where the heuristic's makespan
	// equals the optimum exactly.
	Optimal int `json:"optimal"`
}

// GapReport is the JSON document of the gap suite.
type GapReport struct {
	Suite      string  `json:"suite"`
	Scale      string  `json:"scale"`
	Seed       int64   `json:"seed"`
	Processors int     `json:"processors"`
	CapFactor  float64 `json:"cap_factor"`
	NodeBudget int64   `json:"node_budget"`
	Instances  int     `json:"instances"`
	// Proved counts instances the branch-and-bound closed within the node
	// budget; the gate demands it never decreases.
	Proved        int     `json:"proved"`
	ExploredNodes int64   `json:"explored_nodes"`
	ExactWallMS   float64 `json:"exact_wall_ms"`
	// ProvedPerSec is the throughput ratchet: proved instances per second
	// of exact-solver wall time.
	ProvedPerSec float64                      `json:"proved_per_sec"`
	Heuristics   map[string]GapHeuristicStats `json:"heuristics"`
}

// gapSuite generates the instance population: every tree family at small
// sizes, several seeds per cell, all within the solver's node limit.
func gapSuite(scale string, seed int64) ([]*tree.Tree, error) {
	var sizes []int
	var reps int
	switch scale {
	case "quick":
		sizes, reps = []int{8, 10, 12}, 2
	case "standard":
		sizes, reps = []int{8, 10, 12, 14, 16}, 3
	default:
		return nil, fmt.Errorf("unknown scale %q (quick or standard)", scale)
	}
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
		for _, n := range sizes {
			for r := 0; r < reps; r++ {
				trees = append(trees, gen(n))
			}
		}
	}
	return trees, nil
}

func runGapSuite(scale string, seed int64) (*GapReport, error) {
	trees, err := gapSuite(scale, seed)
	if err != nil {
		return nil, err
	}
	m := machine.Uniform(gapProcs)
	rep := &GapReport{
		Suite:      "gap",
		Scale:      scale,
		Seed:       seed,
		Processors: gapProcs,
		CapFactor:  gapCapFactor,
		NodeBudget: gapNodeBudget,
		Instances:  len(trees),
		Heuristics: make(map[string]GapHeuristicStats),
	}
	type acc struct {
		worst, sum float64
		optimal    int
	}
	accs := make(map[sched.HeuristicID]*acc, len(gapHeuristics))
	for _, id := range gapHeuristics {
		accs[id] = &acc{}
	}

	var exactWall time.Duration
	for _, t := range trees {
		pc := sched.NewPrecompute(t)
		cap := sched.CapFromFactor(gapCapFactor, pc.MSeq())
		start := time.Now()
		res, err := exact.SolvePre(pc, m, cap, gapNodeBudget)
		exactWall += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("exact solve on %s: %w", t, err)
		}
		rep.ExploredNodes += res.Explored
		if !res.Proven {
			continue
		}
		rep.Proved++
		for _, id := range gapHeuristics {
			s, err := pc.Run(id, m, cap)
			if err != nil {
				return nil, fmt.Errorf("%v on %s: %w", id, t, err)
			}
			mk := s.Makespan(t)
			if mk < res.Makespan {
				return nil, fmt.Errorf("%v makespan %g beats the proven optimum %g on %s", id, mk, res.Makespan, t)
			}
			a := accs[id]
			gap := mk / res.Makespan
			a.sum += gap
			if gap > a.worst {
				a.worst = gap
			}
			if mk == res.Makespan {
				a.optimal++
			}
		}
	}
	rep.ExactWallMS = float64(exactWall.Microseconds()) / 1000
	if exactWall > 0 {
		rep.ProvedPerSec = float64(rep.Proved) / exactWall.Seconds()
	}
	for _, id := range gapHeuristics {
		a := accs[id]
		st := GapHeuristicStats{Optimal: a.optimal}
		if rep.Proved > 0 {
			st.WorstGap = a.worst
			st.MeanGap = a.sum / float64(rep.Proved)
		}
		rep.Heuristics[id.String()] = st
	}
	return rep, nil
}

func printGapReport(rep *GapReport) {
	fmt.Printf("gap bench: %s scale, %d instances on p=%d, cap %g×M_seq, budget %d nodes\n",
		rep.Scale, rep.Instances, rep.Processors, rep.CapFactor, rep.NodeBudget)
	fmt.Printf("proved %d/%d optima at %.1f instances/sec (%.1f ms exact wall, %d nodes explored)\n\n",
		rep.Proved, rep.Instances, rep.ProvedPerSec, rep.ExactWallMS, rep.ExploredNodes)
	names := make([]string, 0, len(rep.Heuristics))
	for n := range rep.Heuristics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-24s %9s %9s %9s\n", "heuristic", "worstGap", "meanGap", "optimal")
	for _, n := range names {
		st := rep.Heuristics[n]
		fmt.Printf("%-24s %9.4f %9.4f %6d/%d\n", n, st.WorstGap, st.MeanGap, st.Optimal, rep.Proved)
	}
}

// gapGate reads the baseline report at path and gates rep against it
// (see compareGap).
func gapGate(rep *GapReport, path string, maxratio float64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base GapReport
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if err := compareGap(&base, rep, maxratio); err != nil {
		return fmt.Errorf("vs baseline %s: %w", path, err)
	}
	return nil
}

// compareGap compares rep against base. The proved count must not drop,
// throughput must stay within maxratio of the baseline, and — because the
// suite is deterministic — no heuristic's worst gap may grow beyond float
// tolerance. Limits are written as !(x >= limit) and !(x <= limit) so a
// NaN throughput or gap fails too, and heuristics are checked in name
// order so a run with several failures always reports the same one.
func compareGap(base, rep *GapReport, maxratio float64) error {
	if base.Suite != rep.Suite || base.Scale != rep.Scale || base.Seed != rep.Seed ||
		base.Processors != rep.Processors || base.Instances != rep.Instances ||
		base.NodeBudget != rep.NodeBudget {
		return fmt.Errorf("baseline is %s/%s seed %d (%d instances, p=%d, budget %d); this run is %s/%s seed %d (%d instances, p=%d, budget %d)",
			base.Suite, base.Scale, base.Seed, base.Instances, base.Processors, base.NodeBudget,
			rep.Suite, rep.Scale, rep.Seed, rep.Instances, rep.Processors, rep.NodeBudget)
	}
	if rep.Proved < base.Proved {
		return fmt.Errorf("proved %d optima, baseline proved %d", rep.Proved, base.Proved)
	}
	if base.ProvedPerSec > 0 && !(rep.ProvedPerSec >= base.ProvedPerSec/maxratio) {
		return fmt.Errorf("exact throughput %.1f proved/sec below baseline %.1f / %g",
			rep.ProvedPerSec, base.ProvedPerSec, maxratio)
	}
	const eps = 1e-9 // gaps are deterministic ratios; growth is a real change
	for _, name := range slices.Sorted(maps.Keys(base.Heuristics)) {
		st, ok := rep.Heuristics[name]
		if !ok {
			return fmt.Errorf("heuristic %s present in baseline but not in this run", name)
		}
		if bst := base.Heuristics[name]; !(st.WorstGap <= bst.WorstGap*(1+eps)) {
			return fmt.Errorf("heuristic %s worst gap %.9f exceeds baseline %.9f", name, st.WorstGap, bst.WorstGap)
		}
	}
	return nil
}

// gapMain is the -suite gap entry point.
func gapMain(scale string, seed int64, out, baseline string, maxratio float64) {
	rep, err := runGapSuite(scale, seed)
	if err != nil {
		fatal(err)
	}
	printGapReport(rep)
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", out)
	}
	if baseline != "" {
		if err := gapGate(rep, baseline, maxratio); err != nil {
			fmt.Fprintln(os.Stderr, "treebench: REGRESSION:", err)
			os.Exit(1)
		}
		fmt.Printf("regression gate vs %s passed (maxratio %g)\n", baseline, maxratio)
	}
}
