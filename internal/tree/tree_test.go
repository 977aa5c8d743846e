package tree

import (
	"errors"
	"math/rand"
	"testing"
)

// sampleTree builds the small tree used across tests:
//
//	    0 (root)
//	   / \
//	  1   2
//	 / \   \
//	3   4   5
func sampleTree(t *testing.T) *Tree {
	t.Helper()
	return MustNew(
		[]int{None, 0, 0, 1, 1, 2},
		[]float64{6, 5, 4, 3, 2, 1},
		[]int64{1, 1, 1, 1, 1, 1},
		[]int64{10, 20, 30, 40, 50, 60},
	)
}

func TestNewBasics(t *testing.T) {
	tr := sampleTree(t)
	if got := tr.Len(); got != 6 {
		t.Fatalf("Len() = %d, want 6", got)
	}
	if got := tr.Root(); got != 0 {
		t.Fatalf("Root() = %d, want 0", got)
	}
	if got := tr.Parent(3); got != 1 {
		t.Errorf("Parent(3) = %d, want 1", got)
	}
	if got := tr.Parent(0); got != None {
		t.Errorf("Parent(0) = %d, want None", got)
	}
	if got := len(tr.Children(1)); got != 2 {
		t.Errorf("len(Children(1)) = %d, want 2", got)
	}
	if !tr.IsLeaf(3) || tr.IsLeaf(1) {
		t.Errorf("IsLeaf wrong: IsLeaf(3)=%v IsLeaf(1)=%v", tr.IsLeaf(3), tr.IsLeaf(1))
	}
	if got := tr.NumLeaves(); got != 3 {
		t.Errorf("NumLeaves() = %d, want 3", got)
	}
}

func TestNewErrors(t *testing.T) {
	cases := []struct {
		name   string
		parent []int
		w      []float64
		n, f   []int64
	}{
		{"two roots", []int{None, None}, []float64{1, 1}, []int64{0, 0}, []int64{1, 1}},
		{"no root cycle", []int{1, 0}, []float64{1, 1}, []int64{0, 0}, []int64{1, 1}},
		{"self parent", []int{None, 1}, []float64{1, 1}, []int64{0, 0}, []int64{1, 1}},
		{"out of range parent", []int{None, 7}, []float64{1, 1}, []int64{0, 0}, []int64{1, 1}},
		{"cycle off root", []int{None, 2, 1}, []float64{1, 1, 1}, []int64{0, 0, 0}, []int64{1, 1, 1}},
		{"negative w", []int{None}, []float64{-1}, []int64{0}, []int64{1}},
		{"negative n", []int{None}, []float64{1}, []int64{-2}, []int64{1}},
		{"negative f", []int{None}, []float64{1}, []int64{0}, []int64{-3}},
		{"mismatched lengths", []int{None, 0}, []float64{1}, []int64{0, 0}, []int64{1, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.parent, c.w, c.n, c.f); !errors.Is(err, ErrInvalidTree) {
				t.Fatalf("New() error = %v, want ErrInvalidTree", err)
			}
		})
	}
}

func TestEmptyTree(t *testing.T) {
	tr, err := New(nil, nil, nil, nil)
	if err != nil {
		t.Fatalf("New(empty) error: %v", err)
	}
	if tr.Len() != 0 || tr.Root() != None {
		t.Fatalf("empty tree: Len=%d Root=%d", tr.Len(), tr.Root())
	}
}

func TestSingleNode(t *testing.T) {
	tr := MustNew([]int{None}, []float64{3}, []int64{2}, []int64{5})
	if tr.ProcFootprint(0) != 7 {
		t.Errorf("ProcFootprint = %d, want 7", tr.ProcFootprint(0))
	}
	if tr.CriticalPath() != 3 {
		t.Errorf("CriticalPath = %g, want 3", tr.CriticalPath())
	}
}

func TestTopOrder(t *testing.T) {
	tr := sampleTree(t)
	if !tr.IsTopological(tr.TopOrder()) {
		t.Fatalf("TopOrder() is not topological: %v", tr.TopOrder())
	}
}

// TestTopOrderIsPostorder pins what Liu's traversal relies on: TopOrder
// lays every subtree out contiguously, ending at its root, with the
// children's subtrees in index order.
func TestTopOrderIsPostorder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tr := range []*Tree{
		sampleTree(t),
		RandomAttachment(rng, 300, WeightSpec{}),
		RandomPrufer(rng, 300, WeightSpec{}),
		Caterpillar(rng, 40, 3, WeightSpec{}),
	} {
		n := tr.Len()
		pos := make([]int, n)
		for k, v := range tr.TopOrder() {
			pos[v] = k
		}
		size := tr.SubtreeSize()
		for v := 0; v < n; v++ {
			next := pos[v] - size[v] + 1 // where v's subtree, and its first child's, starts
			for _, c := range tr.Children(v) {
				if first := pos[c] - size[c] + 1; first != next {
					t.Fatalf("child %d of %d starts at %d, want %d", c, v, first, next)
				}
				next = pos[c] + 1
			}
			if next != pos[v] {
				t.Fatalf("node %d at %d does not end its subtree (children end at %d)", v, pos[v], next-1)
			}
		}
	}
}

func TestInSizeAndFootprint(t *testing.T) {
	tr := sampleTree(t)
	if got := tr.InSize(1); got != 40+50 {
		t.Errorf("InSize(1) = %d, want 90", got)
	}
	if got := tr.ProcFootprint(1); got != 90+1+20 {
		t.Errorf("ProcFootprint(1) = %d, want 111", got)
	}
	if got := tr.InSize(3); got != 0 {
		t.Errorf("InSize(leaf) = %d, want 0", got)
	}
}

func TestDepthsAndHeight(t *testing.T) {
	tr := sampleTree(t)
	d := tr.Depths()
	want := []int{0, 1, 1, 2, 2, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("Depths()[%d] = %d, want %d", i, d[i], want[i])
		}
	}
	if tr.Height() != 2 {
		t.Errorf("Height() = %d, want 2", tr.Height())
	}
}

func TestWDepthsAndCriticalPath(t *testing.T) {
	tr := sampleTree(t)
	wd := tr.WDepths()
	// Node 3: w3 + w1 + w0 = 3+5+6 = 14.
	if wd[3] != 14 {
		t.Errorf("WDepths()[3] = %g, want 14", wd[3])
	}
	if wd[0] != 6 {
		t.Errorf("WDepths()[0] = %g, want 6", wd[0])
	}
	if got := tr.CriticalPath(); got != 14 {
		t.Errorf("CriticalPath() = %g, want 14", got)
	}
}

func TestSubtreeW(t *testing.T) {
	tr := sampleTree(t)
	ws := tr.SubtreeW()
	if ws[0] != 21 {
		t.Errorf("SubtreeW[root] = %g, want 21", ws[0])
	}
	if ws[1] != 10 {
		t.Errorf("SubtreeW[1] = %g, want 10", ws[1])
	}
	if ws[5] != 1 {
		t.Errorf("SubtreeW[5] = %g, want 1", ws[5])
	}
}

func TestSubtreeSize(t *testing.T) {
	tr := sampleTree(t)
	sz := tr.SubtreeSize()
	for i, want := range []int{6, 3, 2, 1, 1, 1} {
		if sz[i] != want {
			t.Errorf("SubtreeSize[%d] = %d, want %d", i, sz[i], want)
		}
	}
}

func TestSubtreeExtraction(t *testing.T) {
	tr := sampleTree(t)
	sub, mapping := tr.Subtree(1)
	if sub.Len() != 3 {
		t.Fatalf("Subtree(1).Len() = %d, want 3", sub.Len())
	}
	if mapping[sub.Root()] != 1 {
		t.Errorf("subtree root maps to %d, want 1", mapping[sub.Root()])
	}
	var totalW float64
	for i := 0; i < sub.Len(); i++ {
		totalW += sub.W(i)
	}
	if totalW != 10 {
		t.Errorf("subtree total W = %g, want 10", totalW)
	}
}

func TestIsPostorder(t *testing.T) {
	tr := sampleTree(t)
	if !tr.IsPostorder([]int{3, 4, 1, 5, 2, 0}) {
		t.Errorf("valid postorder rejected")
	}
	// Topological but not postorder: subtree of 1 not contiguous.
	if tr.IsPostorder([]int{3, 5, 4, 1, 2, 0}) {
		t.Errorf("non-postorder accepted")
	}
	if tr.IsPostorder([]int{0, 1, 2, 3, 4, 5}) {
		t.Errorf("non-topological accepted as postorder")
	}
}

func TestIsTopological(t *testing.T) {
	tr := sampleTree(t)
	if tr.IsTopological([]int{3, 4, 1, 5, 2}) {
		t.Errorf("short order accepted")
	}
	if tr.IsTopological([]int{3, 4, 1, 5, 2, 2}) {
		t.Errorf("duplicate order accepted")
	}
	if tr.IsTopological([]int{0, 3, 4, 1, 5, 2}) {
		t.Errorf("root-first order accepted")
	}
}

func TestClone(t *testing.T) {
	tr := sampleTree(t)
	cl := tr.Clone()
	if cl.Len() != tr.Len() || cl.Root() != tr.Root() {
		t.Fatalf("clone mismatch: %v vs %v", cl, tr)
	}
	for i := 0; i < tr.Len(); i++ {
		if cl.Parent(i) != tr.Parent(i) || cl.W(i) != tr.W(i) || cl.N(i) != tr.N(i) || cl.F(i) != tr.F(i) {
			t.Fatalf("clone node %d differs", i)
		}
	}
}

func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gens := []struct {
		name string
		make func() *Tree
		n    int
	}{
		{"RandomAttachment", func() *Tree { return RandomAttachment(rng, 100, WeightSpec{}) }, 100},
		{"RandomPrufer", func() *Tree { return RandomPrufer(rng, 100, WeightSpec{}) }, 100},
		{"RandomBinary", func() *Tree { return RandomBinary(rng, 100, WeightSpec{}) }, 100},
		{"Chain", func() *Tree { return Chain(rng, 100, WeightSpec{}) }, 100},
		{"Fork", func() *Tree { return Fork(rng, 100, WeightSpec{}) }, 100},
		{"Caterpillar", func() *Tree { return Caterpillar(rng, 10, 9, WeightSpec{}) }, 100},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			tr := g.make()
			if tr.Len() != g.n {
				t.Fatalf("Len() = %d, want %d", tr.Len(), g.n)
			}
			if !tr.IsTopological(tr.TopOrder()) {
				t.Fatalf("generated tree has invalid topological order")
			}
		})
	}
}

func TestGeneratorShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if h := Chain(rng, 50, WeightSpec{}).Height(); h != 49 {
		t.Errorf("Chain height = %d, want 49", h)
	}
	if h := Fork(rng, 50, WeightSpec{}).Height(); h != 1 {
		t.Errorf("Fork height = %d, want 1", h)
	}
	if d := Fork(rng, 50, WeightSpec{}).MaxDegree(); d != 49 {
		t.Errorf("Fork max degree = %d, want 49", d)
	}
	bin := RandomBinary(rng, 200, WeightSpec{})
	if d := bin.MaxDegree(); d > 2 {
		t.Errorf("RandomBinary max degree = %d, want <= 2", d)
	}
}

func TestRandomPruferSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 8; n++ {
		tr := RandomPrufer(rng, n, WeightSpec{})
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
	}
}

func TestWeightSpecDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ws := WeightSpec{WMin: 2, WMax: 5, NMin: 1, NMax: 3, FMin: 10, FMax: 20}
	tr := RandomAttachment(rng, 500, ws)
	for i := 0; i < tr.Len(); i++ {
		if tr.W(i) < 2 || tr.W(i) > 5 {
			t.Fatalf("W(%d) = %g out of [2,5]", i, tr.W(i))
		}
		if tr.N(i) < 1 || tr.N(i) > 3 {
			t.Fatalf("N(%d) = %d out of [1,3]", i, tr.N(i))
		}
		if tr.F(i) < 10 || tr.F(i) > 20 {
			t.Fatalf("F(%d) = %d out of [10,20]", i, tr.F(i))
		}
	}
}

func TestBuilder(t *testing.T) {
	var b Builder
	r := b.Add(None, 1, 2, 3)
	c1 := b.AddPebble(r)
	c2 := b.AddPebble(r)
	g := b.AddPebble(c1)
	tr, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if tr.Len() != 4 || tr.Root() != r {
		t.Fatalf("built tree: %v", tr)
	}
	if tr.Parent(g) != c1 || tr.Parent(c2) != r {
		t.Fatalf("builder parents wrong")
	}
	if tr.N(c1) != 0 || tr.F(c1) != 1 || tr.W(c1) != 1 {
		t.Fatalf("AddPebble weights wrong")
	}
}

func TestBuilderSetParent(t *testing.T) {
	var b Builder
	child := b.AddPebble(0) // placeholder parent, fixed below
	root := b.AddPebble(None)
	b.SetParent(child, root)
	tr := b.MustBuild()
	if tr.Root() != root || tr.Parent(child) != root {
		t.Fatalf("SetParent not applied")
	}
}
