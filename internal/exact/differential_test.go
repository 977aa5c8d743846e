package exact

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"treesched/internal/machine"
	"treesched/internal/sched"
	"treesched/internal/traversal"
	"treesched/internal/tree"
)

// treeShapes enumerates every rooted tree shape with n nodes, exactly
// once, as parent vectors with node 0 the root and parent[i] < i. All
// (n-1)! labeled vectors are generated and deduplicated by the canonical
// bracket encoding (children sorted recursively), which is a complete
// isomorphism invariant for rooted trees.
func treeShapes(n int) [][]int {
	seen := map[string]bool{}
	var out [][]int
	parent := make([]int, n)
	parent[0] = tree.None
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			key := canonShape(parent)
			if !seen[key] {
				seen[key] = true
				out = append(out, append([]int(nil), parent...))
			}
			return
		}
		for p := 0; p < i; p++ {
			parent[i] = p
			rec(i + 1)
		}
	}
	rec(1)
	return out
}

func canonShape(parent []int) string {
	n := len(parent)
	children := make([][]int, n)
	for i := 1; i < n; i++ {
		children[parent[i]] = append(children[parent[i]], i)
	}
	var canon func(v int) string
	canon = func(v int) string {
		subs := make([]string, 0, len(children[v]))
		for _, c := range children[v] {
			subs = append(subs, canon(c))
		}
		sort.Strings(subs)
		return "(" + strings.Join(subs, "") + ")"
	}
	return canon(0)
}

// TestTreeShapeCounts pins the enumeration against OEIS A000081 (rooted
// trees with n nodes): any miscount would silently weaken the oracle.
func TestTreeShapeCounts(t *testing.T) {
	want := []int{1, 1, 2, 4, 9, 20, 48, 115} // n = 1..8
	total := 0
	for n := 1; n <= 8; n++ {
		got := len(treeShapes(n))
		if got != want[n-1] {
			t.Errorf("n=%d: %d shapes, want %d", n, got, want[n-1])
		}
		total += got
	}
	if total != 200 {
		t.Errorf("total shapes = %d, want 200", total)
	}
}

// randomWeights draws small-integer weights so that, with the suite's
// power-of-two machine speeds, every event time is exact in float64 and
// all comparisons below can demand exact inequalities. About one node in
// eight becomes a zero-duration pulse to exercise the atomic replay path.
func randomWeights(rng *rand.Rand, n int) (w []float64, nn, ff []int64) {
	w = make([]float64, n)
	nn = make([]int64, n)
	ff = make([]int64, n)
	for i := 0; i < n; i++ {
		if n > 1 && rng.Intn(8) == 0 {
			w[i] = 0
		} else {
			w[i] = float64(1 + rng.Intn(4))
		}
		nn[i] = int64(rng.Intn(3))
		ff[i] = int64(rng.Intn(4))
	}
	return w, nn, ff
}

// oracleHeuristics is every runnable scheduler in the repo: the paper's
// four, the leaf-order ablation, the two sequential baselines and the two
// memory-capped schedulers (run at cap factor 2).
var oracleHeuristics = []sched.HeuristicID{
	sched.IDParSubtrees, sched.IDParSubtreesOptim,
	sched.IDParInnerFirst, sched.IDParDeepestFirst,
	sched.IDParInnerFirstArbitrary,
	sched.IDSequential, sched.IDOptimalSequential,
	sched.IDMemCapped, sched.IDMemCappedBooking,
}

// TestDifferentialOracle is the exhaustive ground-truth suite: every tree
// shape up to 8 nodes, several random weight draws per shape, four
// machine models. For each instance it proves the optimum with the exact
// solver and then checks every heuristic against it:
//
//   - the heuristic's makespan never beats the proven optimum,
//   - the heuristic's schedule validates,
//   - the heuristic's inline-tracked peak equals a from-scratch
//     simulator replay of the same schedule,
//   - the exact schedule itself validates and replays to its reported
//     measures.
//
// Weights and speeds are chosen so all times are exact integers in
// float64; every comparison below is exact, no epsilon.
func TestDifferentialOracle(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	machines := []*machine.Model{
		machine.Uniform(1), machine.Uniform(2), machine.Uniform(4),
		mustSpec(t, "2x1.0+2x0.5"),
	}

	var shapes [][]int
	for n := 1; n <= 8; n++ {
		shapes = append(shapes, treeShapes(n)...)
	}

	instances, solves := 0, 0
	for si, parent := range shapes {
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(si)))
			w, nn, ff := randomWeights(rng, len(parent))
			tr, err := tree.New(append([]int(nil), parent...), w, nn, ff)
			if err != nil {
				t.Fatalf("shape %d: tree.New: %v", si, err)
			}
			instances++
			pc := sched.NewPrecompute(tr)
			for _, m := range machines {
				label := fmt.Sprintf("shape %d seed %d machine %s", si, seed, m.Spec())
				res, err := SolvePre(pc, m, math.MaxInt64, 0)
				if err != nil {
					t.Fatalf("%s: Solve: %v", label, err)
				}
				solves++
				if !res.Proven {
					t.Fatalf("%s: not proven (explored %d)", label, res.Explored)
				}
				checkResult(t, tr, res, math.MaxInt64)

				for _, id := range oracleHeuristics {
					s, err := pc.Run(id, m, sched.CapFromFactor(2, pc.MSeq()))
					if err != nil {
						t.Fatalf("%s: %v: %v", label, id, err)
					}
					if err := s.Validate(tr); err != nil {
						t.Errorf("%s: %v: invalid schedule: %v", label, id, err)
						continue
					}
					inline := sched.PeakMemory(tr, s) // cached when tracked
					fresh := &sched.Schedule{Start: s.Start, Proc: s.Proc, P: s.P, M: s.M}
					hmk, replay, err := sched.Evaluate(tr, fresh)
					if err != nil {
						t.Errorf("%s: %v: Evaluate: %v", label, id, err)
						continue
					}
					if inline != replay {
						t.Errorf("%s: %v: inline peak %d != replay peak %d", label, id, inline, replay)
					}
					if hmk < res.Makespan {
						t.Errorf("%s: %v makespan %g beats the proven optimum %g",
							label, id, hmk, res.Makespan)
					}
				}
			}
		}
	}
	t.Logf("differential oracle: %d instances, %d exact solves, all proven", instances, solves)
}

// TestDifferentialCapped re-proves a slice of the suite under the binding
// cap M_seq at p = 2: the capped optimum must respect the cap and can
// only be worse than the unconstrained one.
func TestDifferentialCapped(t *testing.T) {
	m := machine.Uniform(2)
	var shapes [][]int
	for n := 4; n <= 8; n++ {
		shapes = append(shapes, treeShapes(n)...)
	}
	for si, parent := range shapes {
		rng := rand.New(rand.NewSource(77 + int64(si)))
		w, nn, ff := randomWeights(rng, len(parent))
		tr, err := tree.New(append([]int(nil), parent...), w, nn, ff)
		if err != nil {
			t.Fatal(err)
		}
		pc := sched.NewPrecompute(tr)
		mseq := traversal.BestPostOrder(tr).Peak

		free, err := SolvePre(pc, m, math.MaxInt64, 0)
		if err != nil {
			t.Fatalf("shape %d: uncapped: %v", si, err)
		}
		capped, err := SolvePre(pc, m, mseq, 0)
		if err != nil {
			t.Fatalf("shape %d: capped: %v", si, err)
		}
		if !free.Proven || !capped.Proven {
			t.Fatalf("shape %d: not proven (free=%v capped=%v)", si, free.Proven, capped.Proven)
		}
		checkResult(t, tr, capped, mseq)
		if capped.Makespan < free.Makespan {
			t.Errorf("shape %d: capped optimum %g beats unconstrained optimum %g",
				si, capped.Makespan, free.Makespan)
		}
	}
}

func mustSpec(t *testing.T, spec string) *machine.Model {
	t.Helper()
	m, err := machine.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
