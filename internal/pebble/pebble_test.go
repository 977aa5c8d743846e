package pebble_test

import (
	"testing"

	"treesched/internal/machine"
	"treesched/internal/pebble"
	"treesched/internal/sched"
	"treesched/internal/traversal"
)

// TestNPCompletenessGadgetYesInstance verifies the "⇒" direction of
// Theorem 1 end-to-end (experiment E5): from a yes-instance of 3-Partition,
// the constructed schedule is valid, has makespan exactly 2m+1 and peak
// memory exactly 3mB+3m.
func TestNPCompletenessGadgetYesInstance(t *testing.T) {
	// m=2, B=10: a = {3,3,4,4,3,3} with triples (3,3,4) and (4,3,3).
	a := []int{3, 3, 4, 4, 3, 3}
	tp, err := pebble.NewThreePartition(a, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !pebble.IsPebbleTree(tp.Tree) {
		t.Fatalf("gadget is not a pebble tree")
	}
	// Nodes: root + 3m inner + 3m·Σa_i leaves = 1 + 6 + 6·20.
	if got, want := tp.Tree.Len(), 1+6+3*2*(10*2); got != want {
		t.Fatalf("gadget has %d nodes, want %d", got, want)
	}
	part := pebble.SolveThreePartition(a, 10)
	if part == nil {
		t.Fatalf("solver found no partition for a yes-instance")
	}
	s, err := tp.YesSchedule(part)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(tp.Tree); err != nil {
		t.Fatalf("yes-schedule invalid: %v", err)
	}
	if ms := s.Makespan(tp.Tree); ms != tp.MakespanBound {
		t.Errorf("makespan = %g, want %g", ms, tp.MakespanBound)
	}
	if m := sched.PeakMemory(tp.Tree, s); m != tp.MemoryBound {
		t.Errorf("peak memory = %d, want %d", m, tp.MemoryBound)
	}
	if s.P != tp.Procs {
		t.Errorf("procs = %d, want 3mB = %d", s.P, tp.Procs)
	}
}

func TestThreePartitionValidation(t *testing.T) {
	if _, err := pebble.NewThreePartition([]int{3, 3}, 10); err == nil {
		t.Errorf("accepted non-multiple-of-3 input")
	}
	if _, err := pebble.NewThreePartition([]int{1, 4, 5}, 10); err == nil {
		t.Errorf("accepted a_i outside (B/4, B/2)")
	}
	if _, err := pebble.NewThreePartition([]int{3, 3, 3}, 10); err == nil {
		t.Errorf("accepted Σa != mB")
	}
}

func TestYesScheduleRejectsBadPartitions(t *testing.T) {
	a := []int{3, 3, 4, 4, 3, 3}
	tp, err := pebble.NewThreePartition(a, 10)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][][]int{
		{{0, 1, 2}},            // wrong number of subsets
		{{0, 1}, {2, 3, 4}},    // wrong subset size
		{{0, 1, 4}, {2, 3, 5}}, // wrong sums (9 and 11)
		{{0, 1, 2}, {0, 4, 5}}, // reuse
		{{0, 1, 2}, {3, 4, 9}}, // out of range
	}
	for i, part := range cases {
		if _, err := tp.YesSchedule(part); err == nil {
			t.Errorf("case %d: bad partition accepted", i)
		}
	}
}

func TestSolveThreePartitionNoInstance(t *testing.T) {
	// Σa = mB but no triple partition exists: a = {3,3,3,5,3,3}? Σ=20=2·10,
	// but 5+3+3=11, 3+3+3=9 — no valid split. All a_i in (2.5, 5).
	if part := pebble.SolveThreePartition([]int{3, 3, 3, 5, 3, 3}, 10); part != nil {
		t.Fatalf("solver returned %v for a no-instance", part)
	}
}

// TestInapproxGadget verifies experiment E6: the Figure 2 tree has critical
// path δ+2 and optimal sequential peak memory exactly n+δ, achieved both by
// the paper's explicit schedule and by Liu's exact algorithm.
func TestInapproxGadget(t *testing.T) {
	for _, c := range []struct{ n, delta int }{{2, 3}, {3, 4}, {4, 6}, {1, 2}} {
		g, err := pebble.NewInapprox(c.n, c.delta)
		if err != nil {
			t.Fatal(err)
		}
		if !pebble.IsPebbleTree(g.Tree) {
			t.Fatalf("gadget is not a pebble tree")
		}
		if cp := g.Tree.CriticalPath(); cp != g.OptimalMakespan() {
			t.Errorf("n=%d δ=%d: critical path %g, want %g", c.n, c.delta, cp, g.OptimalMakespan())
		}
		// The paper's schedule achieves n+δ...
		peak, err := traversal.PeakMemory(g.Tree, g.SequentialOrder())
		if err != nil {
			t.Fatalf("paper schedule invalid: %v", err)
		}
		if peak != g.OptimalPeakMemory() {
			t.Errorf("n=%d δ=%d: paper schedule peak %d, want %d", c.n, c.delta, peak, g.OptimalPeakMemory())
		}
		// ...and it is optimal (Liu agrees).
		if opt := traversal.Optimal(g.Tree); opt.Peak != g.OptimalPeakMemory() {
			t.Errorf("n=%d δ=%d: Liu optimal %d, want %d", c.n, c.delta, opt.Peak, g.OptimalPeakMemory())
		}
		// Node count sanity: n·((δ²+5δ-4)/2 + 1) + 1.
		want := c.n*(pebble.DescendantsPerSubtree(c.delta)+1) + 1
		if g.Tree.Len() != want {
			t.Errorf("n=%d δ=%d: %d nodes, want %d", c.n, c.delta, g.Tree.Len(), want)
		}
	}
}

// TestInapproxRatioDiverges checks the Theorem 2 conclusion: with δ = n²,
// the forced memory ratio lower bound grows without bound (asymptotically
// like n/α) for any fixed α.
func TestInapproxRatioDiverges(t *testing.T) {
	alpha := 2.0
	prev := 0.0
	for _, n := range []int{4, 8, 16, 32, 64, 256} {
		lb := pebble.MemoryRatioLowerBound(n, n*n, alpha)
		if lb <= prev {
			t.Fatalf("lower bound not increasing: lb(%d) = %g <= %g", n, lb, prev)
		}
		prev = lb
	}
	// lb ~ n/α: at n=256, α=2 the bound must have passed 100.
	if prev < 100 {
		t.Fatalf("lower bound at n=256 should exceed 100, got %g", prev)
	}
}

// TestParSubtreesForkWorstCase verifies E7 (Figure 3): on the fork tree,
// ParSubtrees needs p(k-1)+2 while list scheduling achieves the optimal
// k+1, exhibiting the p-approximation worst case.
func TestParSubtreesForkWorstCase(t *testing.T) {
	for _, c := range []struct{ p, k int }{{2, 10}, {4, 8}, {8, 5}} {
		tr := pebble.ForkTree(c.p, c.k)
		s, err := sched.NewPrecompute(tr).Run(sched.IDParSubtrees, machine.Uniform(c.p), 0)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(c.p*(c.k-1) + 2)
		if ms := s.Makespan(tr); ms != want {
			t.Errorf("p=%d k=%d: ParSubtrees makespan %g, want %g", c.p, c.k, ms, want)
		}
		d, err := sched.NewPrecompute(tr).Run(sched.IDParDeepestFirst, machine.Uniform(c.p), 0)
		if err != nil {
			t.Fatal(err)
		}
		if ms := d.Makespan(tr); ms != float64(c.k+1) {
			t.Errorf("p=%d k=%d: ParDeepestFirst makespan %g, want optimal %d", c.p, c.k, ms, c.k+1)
		}
	}
}

// TestParSubtreesOptimFixesFork shows the LPT optimization repairing the
// Figure 3 worst case: all pk leaf subtrees are spread over p processors.
func TestParSubtreesOptimFixesFork(t *testing.T) {
	p, k := 4, 10
	tr := pebble.ForkTree(p, k)
	s, err := sched.NewPrecompute(tr).Run(sched.IDParSubtreesOptim, machine.Uniform(p), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ms := s.Makespan(tr); ms != float64(k+1) {
		t.Errorf("ParSubtreesOptim makespan %g, want %d", ms, k+1)
	}
}

// TestParInnerFirstUnboundedMemory verifies E8 (Figure 4): M_seq = p+1 but
// ParInnerFirst accumulates at least (k-1)(p-1)+1 files.
func TestParInnerFirstUnboundedMemory(t *testing.T) {
	for _, c := range []struct{ p, k int }{{3, 10}, {4, 20}, {8, 12}} {
		tr := pebble.JoinChainTree(c.p, c.k)
		if mseq := traversal.Optimal(tr).Peak; mseq != int64(c.p+1) {
			t.Fatalf("p=%d k=%d: M_seq = %d, want %d", c.p, c.k, mseq, c.p+1)
		}
		s, err := sched.NewPrecompute(tr).Run(sched.IDParInnerFirst, machine.Uniform(c.p), 0)
		if err != nil {
			t.Fatal(err)
		}
		if m, want := sched.PeakMemory(tr, s), int64((c.k-1)*(c.p-1)+1); m < want {
			t.Errorf("p=%d k=%d: ParInnerFirst memory %d, want >= %d", c.p, c.k, m, want)
		}
	}
}

// TestParDeepestFirstUnboundedMemory verifies E9 (Figure 5): M_seq = 3 but
// ParDeepestFirst holds about one file per chain.
func TestParDeepestFirstUnboundedMemory(t *testing.T) {
	for _, m := range []int{5, 10, 30} {
		tr := pebble.SpiderTree(m, 4)
		if mseq := traversal.Optimal(tr).Peak; mseq != 3 {
			t.Fatalf("m=%d: M_seq = %d, want 3", m, mseq)
		}
		s, err := sched.NewPrecompute(tr).Run(sched.IDParDeepestFirst, machine.Uniform(2), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := sched.PeakMemory(tr, s); got < int64(m) {
			t.Errorf("m=%d: ParDeepestFirst memory %d, want >= %d", m, got, m)
		}
	}
}

func TestInapproxRejectsBadParams(t *testing.T) {
	if _, err := pebble.NewInapprox(0, 3); err == nil {
		t.Errorf("accepted n=0")
	}
	if _, err := pebble.NewInapprox(2, 1); err == nil {
		t.Errorf("accepted δ=1")
	}
}
