package treesched_test

import (
	"bytes"
	"math/rand"
	"testing"

	"treesched"
)

// TestEndToEnd exercises the public API the way the quickstart example
// does: build a tree, traverse sequentially, schedule with every heuristic,
// measure both objectives against the lower bounds.
func TestEndToEnd(t *testing.T) {
	var b treesched.Builder
	root := b.Add(treesched.None, 2, 1, 0)
	left := b.Add(root, 3, 2, 10)
	right := b.Add(root, 4, 2, 12)
	b.Add(left, 1, 0, 5)
	b.Add(left, 1, 0, 6)
	b.Add(right, 2, 0, 7)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	po := treesched.BestPostOrder(tr)
	opt := treesched.OptimalTraversal(tr)
	if opt.Peak > po.Peak {
		t.Fatalf("optimal %d worse than postorder %d", opt.Peak, po.Peak)
	}
	if got, err := treesched.SequentialPeakMemory(tr, po.Order); err != nil || got != po.Peak {
		t.Fatalf("SequentialPeakMemory = %d, %v; want %d", got, err, po.Peak)
	}
	for _, h := range treesched.Heuristics() {
		s, err := h.Run(tr, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(tr); err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		if ms := s.Makespan(tr); ms < treesched.MakespanLowerBound(tr, 2)-1e-9 {
			t.Fatalf("%s beats the lower bound", h.Name)
		}
		if m := treesched.PeakMemory(tr, s); m < treesched.MemoryLowerBound(tr) {
			t.Fatalf("%s memory %d below sequential optimum", h.Name, m)
		}
	}
}

func TestAssemblyPipelineViaFacade(t *testing.T) {
	g := treesched.Grid2D(10, 10)
	tr, err := treesched.AssemblyTree(g, treesched.NestedDissection(g), 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := treesched.ParSubtrees(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(tr); err != nil {
		t.Fatal(err)
	}
	md := treesched.MinimumDegree(g)
	if _, err := treesched.AssemblyTree(g, md, 1); err != nil {
		t.Fatal(err)
	}
}

func TestTreeEncodingRoundTripViaFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := treesched.RandomTree(rng, 40, treesched.PebbleWeights)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := treesched.DecodeTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip size %d != %d", back.Len(), tr.Len())
	}
}

func TestGadgetFacades(t *testing.T) {
	if tr := treesched.ForkTree(4, 3); tr.Len() != 13 {
		t.Errorf("ForkTree size %d", tr.Len())
	}
	if tr := treesched.JoinChainTree(3, 5); tr.Len() != 2*5+4*2 {
		t.Errorf("JoinChainTree size %d", tr.Len())
	}
	if tr := treesched.SpiderTree(4, 3); tr.NumLeaves() != 5 {
		t.Errorf("SpiderTree leaves %d", tr.NumLeaves())
	}
}

func TestMemCappedFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := treesched.RandomTree(rng, 80, treesched.WeightSpec{WMin: 1, WMax: 4, FMin: 1, FMax: 9})
	mseq := treesched.MemoryLowerBound(tr)
	s, err := treesched.MemCapped(tr, 4, 2*mseq)
	if err != nil {
		t.Fatal(err)
	}
	if m := treesched.PeakMemory(tr, s); m > 2*mseq {
		t.Fatalf("cap violated: %d > %d", m, 2*mseq)
	}
}

func TestPrecomputeCacheFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := treesched.RandomTree(rng, 300, treesched.WeightSpec{WMin: 1, WMax: 4, FMin: 1, FMax: 9})
	pcc := treesched.NewPrecomputeCache(1 << 20)
	pc := treesched.NewPrecompute(tr)
	if !pcc.Add("k", pc) {
		t.Fatal("entry within budget not admitted")
	}
	got, ok := pcc.Get("k")
	if !ok || got != pc {
		t.Fatalf("Get = %p, %v; want the added context", got, ok)
	}
	st := pcc.Stats()
	if st.Hits != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v; want 1 hit, 1 entry, positive bytes", st)
	}
}

func TestEvaluationCollectionFacade(t *testing.T) {
	insts, err := treesched.EvaluationCollection("quick", 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) == 0 {
		t.Fatal("empty collection")
	}
	if _, ok := treesched.HeuristicByName("ParDeepestFirst"); !ok {
		t.Fatal("heuristic lookup failed")
	}
}

func TestSplitSubtreesFacade(t *testing.T) {
	tr := treesched.ForkTree(2, 6)
	sp := treesched.SplitSubtrees(tr, 2)
	if len(sp.SubtreeRoots) == 0 {
		t.Fatal("no subtrees")
	}
	if sp.PredictedMakespan <= 0 {
		t.Fatal("no predicted makespan")
	}
}

func TestFacadeGridAndGenerators(t *testing.T) {
	g3 := treesched.Grid3D(3, 3, 3)
	if g3.Len() != 27 {
		t.Fatalf("Grid3D size %d", g3.Len())
	}
	rng := rand.New(rand.NewSource(4))
	rs := treesched.RandomSymmetric(rng, 50, 3)
	tr, err := treesched.AssemblyTree(rs, treesched.MinimumDegree(rs), 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty assembly tree")
	}
	s, err := treesched.MemCappedBooking(tr, 2, treesched.MemoryLowerBound(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(tr); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluationCollectionScales(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the standard collection")
	}
	std, err := treesched.EvaluationCollection("standard", 1)
	if err != nil {
		t.Fatal(err)
	}
	quick, err := treesched.EvaluationCollection("quick", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(std) <= len(quick) {
		t.Fatalf("standard (%d) not larger than quick (%d)", len(std), len(quick))
	}
}
