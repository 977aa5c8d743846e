package sched_test

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"treesched/internal/machine"
	"treesched/internal/sched"
	"treesched/internal/traversal"
	"treesched/internal/tree"
)

var heavySpec = tree.WeightSpec{WMin: 0.5, WMax: 10, NMin: 0, NMax: 8, FMin: 0, FMax: 50}

func randomTree(rng *rand.Rand, n int) *tree.Tree {
	switch rng.Intn(3) {
	case 0:
		return tree.RandomAttachment(rng, n, heavySpec)
	case 1:
		return tree.RandomPrufer(rng, n, heavySpec)
	default:
		return tree.RandomBinary(rng, n, heavySpec)
	}
}

// runP schedules tr with heuristic id on the paper's uniform machine of p
// processors through a fresh Precompute; cap is the capped heuristics'
// absolute memory cap and is ignored by the rest.
func runP(tr *tree.Tree, id sched.HeuristicID, p int, cap int64) (*sched.Schedule, error) {
	return sched.NewPrecompute(tr).Run(id, machine.Uniform(p), cap)
}

// selectCapped selects capped heuristic id for tr at cap factor 100.
func selectCapped(tb testing.TB, tr *tree.Tree, id sched.HeuristicID) sched.Heuristic {
	tb.Helper()
	hs, _, err := sched.Options{Processors: 1, Heuristics: []sched.HeuristicID{id}, MemCapFactor: 100}.SelectPre(sched.NewPrecompute(tr))
	if err != nil {
		tb.Fatal(err)
	}
	return hs[0]
}

func TestListScheduleSequentialIsTotalW(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := randomTree(rng, 60)
	s, err := runP(tr, sched.IDParInnerFirst, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(tr); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Makespan(tr), tr.TotalW(); math.Abs(got-want) > 1e-6 {
		t.Errorf("p=1 makespan = %g, want total work %g", got, want)
	}
}

func TestHeuristicsProduceValidSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		tr := randomTree(rng, 1+rng.Intn(150))
		for _, p := range []int{1, 2, 3, 8, 32} {
			for _, h := range sched.Heuristics() {
				s, err := h.Run(tr, p)
				if err != nil {
					t.Fatalf("%s(p=%d): %v", h.Name, p, err)
				}
				if err := s.Validate(tr); err != nil {
					t.Fatalf("%s(p=%d) invalid: %v", h.Name, p, err)
				}
			}
		}
	}
}

func TestMakespanAboveLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		tr := randomTree(rng, 2+rng.Intn(120))
		for _, p := range []int{2, 4, 16} {
			lb := sched.MakespanLowerBound(tr, p)
			for _, h := range sched.Heuristics() {
				s, err := h.Run(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				if ms := s.Makespan(tr); ms < lb-1e-6 {
					t.Fatalf("%s(p=%d) makespan %g below lower bound %g", h.Name, p, ms, lb)
				}
			}
		}
	}
}

// TestListSchedulingGrahamBound verifies E11: the list-scheduling heuristics
// respect Graham's bound W/p + (1-1/p)·CP, hence are (2-1/p)-approximations.
func TestListSchedulingGrahamBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		tr := randomTree(rng, 2+rng.Intn(200))
		for _, p := range []int{2, 4, 8} {
			bound := sched.GrahamBound(tr, p)
			for _, name := range []string{"ParInnerFirst", "ParDeepestFirst"} {
				h, _ := sched.ByName(name)
				s, err := h.Run(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				if ms := s.Makespan(tr); ms > bound+1e-6 {
					t.Fatalf("%s(p=%d) makespan %g exceeds Graham bound %g", name, p, ms, bound)
				}
			}
		}
	}
}

// TestParSubtreesMemoryBound verifies E10: ParSubtrees peak memory is at
// most (p+1) times the sequential reference (paper §5.1).
func TestParSubtreesMemoryBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		tr := randomTree(rng, 2+rng.Intn(150))
		mseq := sched.MemoryLowerBound(tr)
		for _, p := range []int{2, 4, 8} {
			s, err := runP(tr, sched.IDParSubtrees, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if m := sched.PeakMemory(tr, s); m > int64(p+1)*mseq {
				t.Fatalf("ParSubtrees(p=%d) memory %d > (p+1)·Mseq = %d", p, m, int64(p+1)*mseq)
			}
		}
	}
}

func TestParSubtreesMatchesPredictedMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		tr := randomTree(rng, 2+rng.Intn(150))
		for _, p := range []int{2, 4, 8} {
			sp, err := sched.SplitSubtrees(tr, p)
			if err != nil {
				t.Fatal(err)
			}
			s, err := runP(tr, sched.IDParSubtrees, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Makespan(tr); math.Abs(got-sp.PredictedMakespan) > 1e-6*(1+math.Abs(got)) {
				t.Fatalf("p=%d: simulated makespan %g != predicted %g", p, got, sp.PredictedMakespan)
			}
		}
	}
}

func TestSplitSubtreesDisjointMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		tr := randomTree(rng, 2+rng.Intn(120))
		sp, err := sched.SplitSubtrees(tr, 4)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		inSeq := make(map[int]bool)
		for _, v := range sp.SeqNodes {
			inSeq[v] = true
		}
		total := len(sp.SeqNodes)
		for _, r := range sp.SubtreeRoots {
			for _, v := range tr.SubtreeNodes(r) {
				if seen[v] || inSeq[v] {
					t.Fatalf("node %d in two parts of the splitting", v)
				}
				seen[v] = true
				total++
			}
			// Maximality: the parent of each subtree root is a seq node.
			if pa := tr.Parent(r); pa != tree.None && !inSeq[pa] {
				t.Fatalf("subtree root %d has non-sequential parent %d", r, pa)
			}
		}
		if total != tr.Len() {
			t.Fatalf("splitting covers %d of %d nodes", total, tr.Len())
		}
	}
}

func TestSplitSubtreesNeverWorseThanSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		tr := randomTree(rng, 2+rng.Intn(120))
		sp, err := sched.SplitSubtrees(tr, 4)
		if err != nil {
			t.Fatal(err)
		}
		if sp.PredictedMakespan > tr.TotalW()+1e-9 {
			t.Fatalf("splitting cost %g worse than sequential %g", sp.PredictedMakespan, tr.TotalW())
		}
	}
}

func TestParSubtreesOptimNotWorseOnAverage(t *testing.T) {
	// ParSubtreesOptim LPT-packs all subtrees, which should not increase
	// the two-phase makespan: the sequential tail only shrinks.
	rng := rand.New(rand.NewSource(9))
	worse := 0
	for trial := 0; trial < 40; trial++ {
		tr := randomTree(rng, 2+rng.Intn(150))
		s1, err := runP(tr, sched.IDParSubtrees, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := runP(tr, sched.IDParSubtreesOptim, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s2.Makespan(tr) > s1.Makespan(tr)+1e-6 {
			worse++
		}
	}
	if worse > 8 { // LPT can lose occasionally; it must not lose routinely
		t.Fatalf("ParSubtreesOptim worse than ParSubtrees in %d/40 trials", worse)
	}
}

// TestSimulatorAgreesWithSequentialEval cross-checks the discrete-event
// memory simulator against the sequential evaluation: a 1-processor
// schedule that follows the optimal postorder has exactly the postorder
// peak.
func TestSimulatorAgreesWithSequentialEval(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		tr := randomTree(rng, 1+rng.Intn(100))
		res := traversal.BestPostOrder(tr)
		s := &sched.Schedule{Start: make([]float64, tr.Len()), Proc: make([]int, tr.Len()), P: 1}
		at := 0.0
		for _, v := range res.Order {
			s.Start[v] = at
			at += tr.W(v)
		}
		if err := s.Validate(tr); err != nil {
			t.Fatal(err)
		}
		if m := sched.PeakMemory(tr, s); m != res.Peak {
			t.Fatalf("simulator peak %d != sequential eval %d", m, res.Peak)
		}
	}
}

func TestPeakMemoryZeroDurationTasks(t *testing.T) {
	// A zero-duration node must still account for its footprint: chain
	// root(w=1) <- mid(w=0, n=5) <- leaf(w=1).
	tr := tree.MustNew([]int{tree.None, 0, 1},
		[]float64{1, 0, 1}, []int64{0, 5, 0}, []int64{1, 1, 1})
	s := &sched.Schedule{Start: []float64{1, 1, 0}, Proc: []int{0, 0, 0}, P: 1}
	if err := s.Validate(tr); err != nil {
		t.Fatal(err)
	}
	// At time 1: leaf completes (release nothing; f stays), mid pulses:
	// 1 (leaf f) + 5 (n) + 1 (f) = 7, then root starts: 1 + 1 = 2.
	if m := sched.PeakMemory(tr, s); m != 7 {
		t.Fatalf("pulse peak = %d, want 7", m)
	}
}

func TestMemoryTraceMonotoneBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTree(rng, 80)
	s, err := runP(tr, sched.IDParDeepestFirst, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	times, mem := sched.MemoryTrace(tr, s)
	if len(times) != len(mem) || len(times) == 0 {
		t.Fatalf("trace sizes: %d vs %d", len(times), len(mem))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("trace times not sorted at %d", i)
		}
	}
	// The trace ends with only the root file resident.
	if mem[len(mem)-1] != tr.F(tr.Root()) {
		t.Fatalf("final resident = %d, want f_root = %d", mem[len(mem)-1], tr.F(tr.Root()))
	}
	// The trace maximum matches PeakMemory.
	var mx int64
	for _, m := range mem {
		if m > mx {
			mx = m
		}
	}
	if mx != sched.PeakMemory(tr, s) {
		t.Fatalf("trace max %d != PeakMemory %d", mx, sched.PeakMemory(tr, s))
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	tr := tree.MustNew([]int{tree.None, 0, 0},
		[]float64{1, 1, 1}, []int64{0, 0, 0}, []int64{1, 1, 1})
	cases := []struct {
		name string
		s    *sched.Schedule
	}{
		{"precedence", &sched.Schedule{Start: []float64{0, 1, 1}, Proc: []int{0, 1, 2}, P: 3}},
		{"overlap", &sched.Schedule{Start: []float64{2, 0, 0.5}, Proc: []int{0, 1, 1}, P: 2}},
		{"bad proc", &sched.Schedule{Start: []float64{1, 0, 0}, Proc: []int{0, 1, 5}, P: 2}},
		{"negative start", &sched.Schedule{Start: []float64{1, -3, 0}, Proc: []int{0, 1, 0}, P: 2}},
		{"nan start", &sched.Schedule{Start: []float64{1, math.NaN(), 0}, Proc: []int{0, 1, 0}, P: 2}},
		{"wrong length", &sched.Schedule{Start: []float64{1, 0}, Proc: []int{0, 1}, P: 2}},
		{"no procs", &sched.Schedule{Start: []float64{1, 0, 0}, Proc: []int{0, 0, 0}, P: 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.s.Validate(tr); err == nil {
				t.Fatalf("invalid schedule accepted")
			}
		})
	}
	good := &sched.Schedule{Start: []float64{1, 0, 0}, Proc: []int{0, 0, 1}, P: 2}
	if err := good.Validate(tr); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestMemCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		tr := randomTree(rng, 2+rng.Intn(120))
		mseq := sched.MemoryLowerBound(tr)
		for _, p := range []int{2, 8} {
			// Below the sequential requirement: must fail.
			if _, err := runP(tr, sched.IDMemCapped, p, mseq-1); err == nil {
				t.Fatalf("cap below M_seq accepted")
			}
			for _, cap := range []int64{mseq, 2 * mseq, 1 << 60} {
				s, err := runP(tr, sched.IDMemCapped, p, cap)
				if err != nil {
					t.Fatalf("MemCapped(cap=%d): %v", cap, err)
				}
				if err := s.Validate(tr); err != nil {
					t.Fatalf("MemCapped schedule invalid: %v", err)
				}
				if m := sched.PeakMemory(tr, s); m > cap {
					t.Fatalf("MemCapped(cap=%d) used %d", cap, m)
				}
				if ms := s.Makespan(tr); ms > tr.TotalW()+1e-6 {
					t.Fatalf("MemCapped slower than fully sequential: %g > %g", ms, tr.TotalW())
				}
			}
		}
	}
}

func TestMemCappedTightCapSequentialMakespan(t *testing.T) {
	// With cap exactly M_seq on a chain, execution is forced sequential.
	rng := rand.New(rand.NewSource(13))
	tr := tree.Chain(rng, 50, tree.PebbleWeights)
	mseq := sched.MemoryLowerBound(tr)
	s, err := runP(tr, sched.IDMemCapped, 8, mseq)
	if err != nil {
		t.Fatal(err)
	}
	if ms := s.Makespan(tr); math.Abs(ms-tr.TotalW()) > 1e-9 {
		t.Fatalf("chain under cap: makespan %g, want %g", ms, tr.TotalW())
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"ParSubtrees", "ParSubtreesOptim", "ParInnerFirst",
		"ParDeepestFirst", "ParInnerFirstArbitrary", "Sequential"} {
		if _, ok := sched.ByName(name); !ok {
			t.Errorf("ByName(%q) unknown", name)
		}
	}
	if _, ok := sched.ByName("nope"); ok {
		t.Errorf("ByName accepted unknown name")
	}
}

func TestHeuristicsOnEmptyAndSingle(t *testing.T) {
	empty, _ := tree.New(nil, nil, nil, nil)
	single := tree.MustNew([]int{tree.None}, []float64{2}, []int64{1}, []int64{3})
	for _, h := range sched.Heuristics() {
		s, err := h.Run(empty, 2)
		if err != nil || s.Makespan(empty) != 0 {
			t.Fatalf("%s on empty tree: %v", h.Name, err)
		}
		s, err = h.Run(single, 2)
		if err != nil {
			t.Fatalf("%s on single: %v", h.Name, err)
		}
		if s.Makespan(single) != 2 {
			t.Fatalf("%s single makespan = %g", h.Name, s.Makespan(single))
		}
		if m := sched.PeakMemory(single, s); m != 4 {
			t.Fatalf("%s single memory = %d, want 4", h.Name, m)
		}
	}
}

func TestInvalidProcessorCount(t *testing.T) {
	tr := tree.MustNew([]int{tree.None}, []float64{1}, []int64{0}, []int64{1})
	for _, h := range sched.Heuristics() {
		if _, err := h.Run(tr, 0); err == nil {
			t.Errorf("%s accepted p=0", h.Name)
		}
	}
	if _, err := selectCapped(t, tr, sched.IDMemCapped).Run(tr, 0); err == nil {
		t.Errorf("MemCapped accepted p=0")
	}
	if _, _, err := (sched.Options{Heuristics: []sched.HeuristicID{sched.IDMemCapped}, MemCapFactor: 2}).SelectPre(sched.NewPrecompute(tr)); err == nil {
		t.Errorf("a selection with p=0 was accepted")
	}
}

// TestSplitSubtreesRejectsNoProcessors: both splittings reject p < 1 with
// the schedulers' error instead of indexing an empty queue, on an empty,
// a single-node and a larger tree.
func TestSplitSubtreesRejectsNoProcessors(t *testing.T) {
	trees := []*tree.Tree{
		tree.MustNew(nil, nil, nil, nil),
		tree.MustNew([]int{tree.None}, []float64{1}, []int64{0}, []int64{1}),
		randomTree(rand.New(rand.NewSource(9)), 40),
	}
	splits := []struct {
		name  string
		split func(*tree.Tree, int) (sched.Splitting, error)
	}{
		{"SplitSubtrees", sched.SplitSubtrees},
		{"SplitSubtreesNaive", sched.SplitSubtreesNaive},
	}
	for _, sp := range splits {
		for _, p := range []int{0, -1} {
			for _, tr := range trees {
				got, err := sp.split(tr, p)
				if err == nil || !strings.Contains(err.Error(), "at least one processor") {
					t.Errorf("%s(n=%d, p=%d) error = %v, want the processor-count error", sp.name, tr.Len(), p, err)
				}
				if got.SubtreeRoots != nil || got.SeqNodes != nil || got.PredictedMakespan != 0 {
					t.Errorf("%s(n=%d, p=%d) returned %+v with its error", sp.name, tr.Len(), p, got)
				}
			}
		}
		if _, err := sp.split(trees[2], 1); err != nil {
			t.Errorf("%s(p=1): %v", sp.name, err)
		}
	}
}

func TestMoreProcessorsNeverIncreaseListMakespan(t *testing.T) {
	// Not a theorem for general list scheduling (anomalies), but for trees
	// with our deterministic priorities, large p should approach the
	// critical path; verify p=64 reaches CP on modest trees.
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		tr := randomTree(rng, 2+rng.Intn(60))
		s, err := runP(tr, sched.IDParDeepestFirst, 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ms, cp := s.Makespan(tr), tr.CriticalPath(); math.Abs(ms-cp) > 1e-6 {
			t.Fatalf("p=64 makespan %g, want critical path %g", ms, cp)
		}
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tr := randomTree(rng, 60)
	s, err := runP(tr, sched.IDParDeepestFirst, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := sched.DecodeSchedule(&buf, tr)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < tr.Len(); v++ {
		if back.Start[v] != s.Start[v] || back.Proc[v] != s.Proc[v] {
			t.Fatalf("round trip differs at node %d", v)
		}
	}
	if back.P != s.P {
		t.Fatalf("round trip P = %d, want %d", back.P, s.P)
	}
}

func TestDecodeScheduleRejectsInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	tr := randomTree(rng, 10)
	if _, err := sched.DecodeSchedule(strings.NewReader("{"), tr); err == nil {
		t.Error("truncated JSON accepted")
	}
	// Valid JSON, invalid schedule (precedence violated).
	if _, err := sched.DecodeSchedule(strings.NewReader(`{"p":1,"start":[0],"proc":[0]}`), tr); err == nil {
		t.Error("wrong-size schedule accepted")
	}
}
