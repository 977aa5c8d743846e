package exact

import (
	"errors"
	"math"
	"strings"
	"testing"

	"treesched/internal/dataset"
	"treesched/internal/machine"
	"treesched/internal/sched"
	"treesched/internal/traversal"
	"treesched/internal/tree"
)

// mustTree builds a tree from a parent vector and weights, failing the
// test on a malformed input.
func mustTree(t *testing.T, parent []int, w []float64, n, f []int64) *tree.Tree {
	t.Helper()
	tr, err := tree.New(parent, w, n, f)
	if err != nil {
		t.Fatalf("tree.New: %v", err)
	}
	return tr
}

// checkResult asserts the invariants every successful solve must satisfy:
// the schedule validates, its fresh replay agrees with the reported
// measures, the cap is respected, and the makespan dominates the bound.
func checkResult(t *testing.T, tr *tree.Tree, res *Result, cap int64) {
	t.Helper()
	if res.Schedule == nil {
		t.Fatal("nil schedule on nil error")
	}
	if err := res.Schedule.Validate(tr); err != nil {
		t.Fatalf("schedule does not validate: %v", err)
	}
	// Rebuild without the cached peak so Evaluate replays from scratch.
	fresh := &sched.Schedule{
		Start: res.Schedule.Start, Proc: res.Schedule.Proc,
		P: res.Schedule.P, M: res.Schedule.M,
	}
	mk, peak, err := sched.Evaluate(tr, fresh)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if mk != res.Makespan || peak != res.Peak {
		t.Fatalf("replay measures (%g, %d) != reported (%g, %d)", mk, peak, res.Makespan, res.Peak)
	}
	if peak > cap {
		t.Fatalf("peak %d exceeds cap %d", peak, cap)
	}
	if res.Makespan < res.LowerBound {
		t.Fatalf("makespan %g beats its own lower bound %g", res.Makespan, res.LowerBound)
	}
}

func TestSolveEmptyAndNil(t *testing.T) {
	m := machine.Uniform(2)
	for _, tr := range []*tree.Tree{nil} {
		res, err := Solve(tr, m, math.MaxInt64, 0)
		if err != nil {
			t.Fatalf("Solve(empty): %v", err)
		}
		if !res.Proven || res.Schedule == nil || res.Makespan != 0 {
			t.Fatalf("Solve(empty) = %+v, want trivial proven result", res)
		}
	}
}

func TestSolveRejectsBadArgs(t *testing.T) {
	tr := mustTree(t, []int{tree.None, 0}, []float64{1, 1}, []int64{0, 0}, []int64{1, 1})
	m := machine.Uniform(2)
	if _, err := Solve(tr, m, -1, 0); err == nil {
		t.Error("negative cap: want error")
	}
	if _, err := Solve(tr, m, math.MaxInt64, -5); err == nil {
		t.Error("negative budget: want error")
	}

	// A 65-node chain exceeds the mask limit for p >= 2 ...
	n := MaxSolveNodes + 1
	parent := make([]int, n)
	w := make([]float64, n)
	nn := make([]int64, n)
	ff := make([]int64, n)
	parent[0] = tree.None
	for i := 1; i < n; i++ {
		parent[i] = i - 1
	}
	for i := range w {
		w[i], ff[i] = 1, 1
	}
	big := mustTree(t, parent, w, nn, ff)
	if _, err := Solve(big, m, math.MaxInt64, 0); err == nil ||
		!strings.Contains(err.Error(), "solver limit") {
		t.Errorf("oversized tree at p=2: got %v, want solver-limit error", err)
	}
	// ... but the polynomial p=1 path answers at any size.
	res, err := Solve(big, machine.Uniform(1), math.MaxInt64, 0)
	if err != nil {
		t.Fatalf("oversized tree at p=1: %v", err)
	}
	if !res.Proven {
		t.Error("p=1 result not proven")
	}
}

func TestSolveInfeasibleCap(t *testing.T) {
	tr := mustTree(t, []int{tree.None, 0, 0}, []float64{1, 1, 1},
		[]int64{0, 0, 0}, []int64{1, 2, 3})
	opt := traversal.Optimal(tr)
	_, err := Solve(tr, machine.Uniform(2), opt.Peak-1, 0)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("cap below optimal sequential peak: got %v, want ErrInfeasible", err)
	}
	// At exactly the floor the solve must succeed.
	res, err := Solve(tr, machine.Uniform(2), opt.Peak, 0)
	if err != nil {
		t.Fatalf("cap == optimal sequential peak: %v", err)
	}
	checkResult(t, tr, res, opt.Peak)
}

// TestSolveKnownOptima pins hand-checkable instances.
func TestSolveKnownOptima(t *testing.T) {
	// Two independent unit leaves under a root: p=2 runs the leaves in
	// parallel — makespan 2; p=1 must serialize — makespan 3.
	tr := mustTree(t, []int{tree.None, 0, 0}, []float64{1, 1, 1},
		[]int64{0, 0, 0}, []int64{0, 1, 1})
	res, err := Solve(tr, machine.Uniform(2), math.MaxInt64, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, tr, res, math.MaxInt64)
	if !res.Proven || res.Makespan != 2 {
		t.Errorf("p=2: got mk=%g proven=%v, want mk=2 proven", res.Makespan, res.Proven)
	}

	res, err = Solve(tr, machine.Uniform(1), math.MaxInt64, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, tr, res, math.MaxInt64)
	if !res.Proven || res.Makespan != 3 {
		t.Errorf("p=1: got mk=%g proven=%v, want mk=3 proven", res.Makespan, res.Proven)
	}

	// Same shape on one fast and one half-speed processor: the optimum
	// runs one leaf on each (finish at max(1, 2) = 2), then the root on
	// the fast processor — makespan 3.
	het, err := machine.ParseSpec("1x1.0+1x0.5")
	if err != nil {
		t.Fatal(err)
	}
	res, err = Solve(tr, het, math.MaxInt64, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, tr, res, math.MaxInt64)
	if !res.Proven || res.Makespan != 3 {
		t.Errorf("het: got mk=%g proven=%v, want mk=3 proven", res.Makespan, res.Proven)
	}
	if res.Schedule.M == nil {
		t.Error("heterogeneous solve returned a schedule without its machine model")
	}
}

// TestSolveCapForcesSerialization checks the memory cap changes the
// optimum: two leaves with large outputs cannot be in flight together
// under a tight cap, so the capped optimum is strictly worse.
func TestSolveCapForcesSerialization(t *testing.T) {
	// Each leaf needs a 9-unit execution file while running (released at
	// completion) and leaves a 1-unit output. Running both together costs
	// 20; one after the other peaks at 11.
	tr := mustTree(t, []int{tree.None, 0, 0}, []float64{1, 4, 4},
		[]int64{0, 9, 9}, []int64{1, 1, 1})
	m := machine.Uniform(2)

	free, err := Solve(tr, m, math.MaxInt64, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, tr, free, math.MaxInt64)
	if !free.Proven || free.Makespan != 5 { // leaves in parallel, then root
		t.Fatalf("uncapped: got mk=%g proven=%v, want mk=5", free.Makespan, free.Proven)
	}

	// Cap 11 holds one leaf's output plus the other in flight (10 + 10
	// exceeds it), forcing the leaves to serialize: makespan 9.
	capped, err := Solve(tr, m, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, tr, capped, 11)
	if !capped.Proven || capped.Makespan != 9 {
		t.Fatalf("capped: got mk=%g proven=%v, want mk=9", capped.Makespan, capped.Proven)
	}
}

// TestSolveBeatsSeedUnderCap reproduces the case where the search must
// improve on every heuristic seed (the capped schedulers overserialize).
func TestSolveBeatsSeedUnderCap(t *testing.T) {
	// A comb: root with three chains of two nodes each.
	parent := []int{tree.None, 0, 0, 0, 1, 2, 3}
	w := []float64{2, 1, 1, 1, 3, 3, 3}
	n := []int64{0, 0, 0, 0, 0, 0, 0}
	f := []int64{1, 2, 2, 2, 3, 3, 3}
	tr := mustTree(t, parent, w, n, f)
	m := machine.Uniform(2)
	mseq := traversal.BestPostOrder(tr).Peak

	res, err := Solve(tr, m, mseq, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, tr, res, mseq)
	if !res.Proven {
		t.Fatalf("not proven (explored %d)", res.Explored)
	}
	seq, err := sched.SequentialSchedule(tr, machine.Uniform(1), traversal.BestPostOrder(tr).Order)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan > seq.Makespan(tr) {
		t.Errorf("capped optimum %g worse than sequential %g", res.Makespan, seq.Makespan(tr))
	}
}

// TestSolveBudgetExhaustion: with a budget of 1 node on a tree whose seed
// is not provably optimal at the root, the solve must come back unproven
// yet still hold a feasible schedule.
func TestSolveBudgetExhaustion(t *testing.T) {
	// A wide flat tree gives the search room so one node cannot close it.
	const leaves = 12
	parent := make([]int, leaves+1)
	w := make([]float64, leaves+1)
	n := make([]int64, leaves+1)
	f := make([]int64, leaves+1)
	parent[0] = tree.None
	w[0], f[0] = 3, 1
	for i := 1; i <= leaves; i++ {
		parent[i] = 0
		w[i] = float64(1 + i%4)
		f[i] = int64(1 + i%3)
	}
	tr := mustTree(t, parent, w, n, f)
	m := machine.Uniform(3)

	res, err := Solve(tr, m, math.MaxInt64, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, tr, res, math.MaxInt64)
	if res.Proven {
		t.Skip("seed proven optimal at the root bound; budget path not exercised on this instance")
	}
	if res.Explored < 1 {
		t.Errorf("explored %d nodes, want >= 1", res.Explored)
	}

	full, err := Solve(tr, m, math.MaxInt64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Proven {
		t.Fatalf("full budget did not prove (explored %d)", full.Explored)
	}
	if full.Makespan > res.Makespan {
		t.Errorf("proven optimum %g worse than budget-1 anytime result %g", full.Makespan, res.Makespan)
	}
}

// TestSolveDeterministic: identical inputs must yield byte-identical
// schedules and identical node counts, run-to-run.
func TestSolveDeterministic(t *testing.T) {
	parent := []int{tree.None, 0, 0, 1, 1, 2, 2}
	w := []float64{2, 1, 3, 2, 1, 1, 2}
	n := []int64{1, 0, 1, 0, 1, 0, 1}
	f := []int64{1, 2, 1, 3, 1, 2, 1}
	tr := mustTree(t, parent, w, n, f)
	m, err := machine.ParseSpec("2x1.0+2x0.5")
	if err != nil {
		t.Fatal(err)
	}
	mseq := traversal.BestPostOrder(tr).Peak

	first, err := Solve(tr, m, 2*mseq, 0)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := Solve(tr, m, 2*mseq, 0)
		if err != nil {
			t.Fatal(err)
		}
		if again.Makespan != first.Makespan || again.Peak != first.Peak ||
			again.Explored != first.Explored || again.Proven != first.Proven {
			t.Fatalf("run %d: result %+v differs from first %+v", run, again, first)
		}
		for i := range first.Schedule.Start {
			if again.Schedule.Start[i] != first.Schedule.Start[i] ||
				again.Schedule.Proc[i] != first.Schedule.Proc[i] {
				t.Fatalf("run %d: schedule differs at node %d", run, i)
			}
		}
	}
}

// TestAnchorSequentialDataset is the cross-implementation anchor: at
// p = 1 with cap = M_seq the exact solver must reproduce Liu's optimal
// traversal peak and the sequential makespan bit-exactly on the whole
// Quick dataset collection.
func TestAnchorSequentialDataset(t *testing.T) {
	ins, err := dataset.Collection(dataset.Quick, 42)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	if len(ins) == 0 {
		t.Fatal("empty collection")
	}
	m := machine.Uniform(1)
	for _, in := range ins {
		tr := in.Tree
		opt := traversal.Optimal(tr)
		mseq := traversal.BestPostOrder(tr).Peak

		res, err := Solve(tr, m, mseq, 0)
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if !res.Proven {
			t.Errorf("%s: p=1 not proven", in.Name)
		}
		if res.Peak != opt.Peak {
			t.Errorf("%s: exact peak %d != traversal.Optimal peak %d", in.Name, res.Peak, opt.Peak)
		}
		seq, err := sched.SequentialSchedule(tr, machine.Uniform(1), opt.Order)
		if err != nil {
			t.Fatalf("%s: SequentialSchedule: %v", in.Name, err)
		}
		if res.Makespan != seq.Makespan(tr) {
			t.Errorf("%s: exact makespan %v != sequential makespan %v (want bit-exact)",
				in.Name, res.Makespan, seq.Makespan(tr))
		}
		if err := res.Schedule.Validate(tr); err != nil {
			t.Errorf("%s: schedule invalid: %v", in.Name, err)
		}
	}
}

// TestSolvePulseTasks exercises zero-duration tasks, whose atomic
// allocate-peak-release replay the solver must account exactly like the
// simulator.
func TestSolvePulseTasks(t *testing.T) {
	// Node 1 is a pulse (w=0) with a real execution file.
	parent := []int{tree.None, 0, 0, 1}
	w := []float64{1, 0, 2, 1}
	n := []int64{0, 3, 0, 1}
	f := []int64{1, 2, 2, 2}
	tr := mustTree(t, parent, w, n, f)
	for _, p := range []int{1, 2, 3} {
		res, err := Solve(tr, machine.Uniform(p), math.MaxInt64, 0)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		checkResult(t, tr, res, math.MaxInt64)
		if !res.Proven {
			t.Errorf("p=%d: not proven", p)
		}
	}
}
