package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// checkParSubtreesAgainstReference compares the one-pass splitting, the
// tree-free phase-2 order and the heap-merged peak with their references
// (parsubtrees_ref_test.go) on t with p processors: the same Splitting,
// the same phase-2 order for both variants' parallel roots, and for both
// variants, on the uniform machine and on a heterogeneous one, the same
// start times, processors and cached peak.
func checkParSubtreesAgainstReference(t *tree.Tree, p int) error {
	if t.Len() == 0 {
		return nil
	}
	got, want := splitSubtreesW(t, p, t.SubtreeW()), refSplitSubtrees(t, p)
	if math.Float64bits(got.PredictedMakespan) != math.Float64bits(want.PredictedMakespan) {
		return fmt.Errorf("p=%d: PredictedMakespan %v, reference %v", p, got.PredictedMakespan, want.PredictedMakespan)
	}
	if !slices.Equal(got.SeqNodes, want.SeqNodes) {
		return fmt.Errorf("p=%d: SeqNodes %v, reference %v", p, got.SeqNodes, want.SeqNodes)
	}
	if !slices.Equal(got.SubtreeRoots, want.SubtreeRoots) {
		return fmt.Errorf("p=%d: SubtreeRoots %v, reference %v", p, got.SubtreeRoots, want.SubtreeRoots)
	}
	for _, optim := range []bool{false, true} {
		roots := got.SubtreeRoots
		if !optim && len(roots) > p {
			roots = roots[:p]
		}
		if g, w := phase2Order(t, roots), refPhase2(t, roots); !slices.Equal(g, w) {
			return fmt.Errorf("p=%d optim=%v: phase-2 order %v, reference %v", p, optim, g, w)
		}
	}
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = []float64{1, 2.5, 0.75}[i%3]
	}
	het, err := machine.New(speeds)
	if err != nil {
		return err
	}
	pc := NewPrecompute(t)
	for _, m := range []*machine.Model{machine.Uniform(p), het} {
		for _, optim := range []bool{false, true} {
			s, err := parSubtrees(pc, m, optim, nil)
			if err != nil {
				return err
			}
			if err := sameSchedule(s, refParSubtrees(pc, m, optim)); err != nil {
				return fmt.Errorf("p=%d machine %s optim=%v: %w", p, m.Spec(), optim, err)
			}
		}
	}
	return nil
}

// sameSchedule reports the first difference between two schedules: a
// start time (bitwise), a processor, or the cached peak.
func sameSchedule(got, want *Schedule) error {
	for v := range want.Start {
		if math.Float64bits(got.Start[v]) != math.Float64bits(want.Start[v]) || got.Proc[v] != want.Proc[v] {
			return fmt.Errorf("node %d at %v on %d, reference %v on %d", v, got.Start[v], got.Proc[v], want.Start[v], want.Proc[v])
		}
	}
	if got.peakKnown != want.peakKnown || got.peak != want.peak {
		return fmt.Errorf("peak %d (known %v), reference %d (known %v)", got.peak, got.peakKnown, want.peak, want.peakKnown)
	}
	return nil
}

// TestParSubtreesMatchesReference runs the differential check over every
// generator family with continuous, integer (tied) and zero-including
// weights, at p from 1 to 32.
func TestParSubtreesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	specs := []tree.WeightSpec{
		{WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20},
		{WMin: 1, WMax: 1, NMin: 0, NMax: 2, FMin: 0, FMax: 3}, // ties everywhere
		{WMin: 0, WMax: 2, NMin: 0, NMax: 3, FMin: 0, FMax: 9},
	}
	gens := []func(n int, ws tree.WeightSpec) *tree.Tree{
		func(n int, ws tree.WeightSpec) *tree.Tree { return tree.RandomAttachment(rng, n, ws) },
		func(n int, ws tree.WeightSpec) *tree.Tree { return tree.RandomPrufer(rng, n, ws) },
		func(n int, ws tree.WeightSpec) *tree.Tree { return tree.RandomBinary(rng, n, ws) },
		func(n int, ws tree.WeightSpec) *tree.Tree { return tree.Chain(rng, n, ws) },
		func(n int, ws tree.WeightSpec) *tree.Tree { return tree.Fork(rng, n, ws) },
		func(n int, ws tree.WeightSpec) *tree.Tree { return tree.Caterpillar(rng, max(n/4, 1), 3, ws) },
	}
	for trial := 0; trial < 120; trial++ {
		ws := specs[trial%len(specs)]
		tr := gens[trial%len(gens)](1+rng.Intn(300), ws)
		for _, p := range []int{1, 2, 3, 5, 8, 16, 32} {
			if err := checkParSubtreesAgainstReference(tr, p); err != nil {
				t.Fatalf("trial %d (%d nodes): %v", trial, tr.Len(), err)
			}
		}
	}
}

// fuzzTree builds a tree and a processor count from bytes. The first byte
// picks p in 1..32, whether every w is positive (so the peak is cached) and
// whether the root and the zero weights of odd nodes are -0 (so w-depths
// of +0 and -0 meet); each following pair of bytes adds a node, attached to
// the root for a quarter of the first byte's range (wide nodes) and to an
// earlier node otherwise, with small weights that tie often and may be
// zero.
func fuzzTree(data []byte) (*tree.Tree, int) {
	if len(data) == 0 {
		return nil, 0
	}
	p := 1 + int(data[0]&0x1f)
	positive := data[0]&0x80 != 0
	negZero := data[0]&0x40 != 0
	data = data[1:]
	n := 1 + min(len(data)/2, 4000)
	parent := make([]int, n)
	w := make([]float64, n)
	nn := make([]int64, n)
	f := make([]int64, n)
	parent[0] = tree.None
	w[0], f[0] = 1, 1
	for i := 1; i < n; i++ {
		a, b := data[2*i-2], data[2*i-1]
		if a >= 64 {
			parent[i] = int(a) % i
		}
		w[i] = float64(b & 3)
		if positive {
			w[i]++
		}
		nn[i] = int64(b >> 2 & 3)
		f[i] = int64(b >> 4)
		if negZero && w[i] == 0 && i%2 == 1 {
			w[i] = math.Copysign(0, -1)
		}
	}
	if negZero {
		w[0] = math.Copysign(0, -1)
	}
	return tree.MustNew(parent, w, nn, f), p
}

// FuzzParSubtrees checks the splitting, phase-2 order and peak of both
// ParSubtrees variants against the reference implementation on trees
// built from bytes.
func FuzzParSubtrees(f *testing.F) {
	f.Add([]byte{0x83, 70, 1, 80, 2, 90, 3, 100, 4})
	f.Add([]byte{0x05, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x9f, 200, 17, 201, 33, 0, 49, 255, 65, 66, 81, 67, 97, 68, 113})
	rng := rand.New(rand.NewSource(23))
	for k := 0; k < 8; k++ {
		seed := make([]byte, 1+2*rng.Intn(200))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, p := fuzzTree(data)
		if tr == nil {
			return
		}
		if err := checkParSubtreesAgainstReference(tr, p); err != nil {
			t.Fatalf("%d nodes: %v", tr.Len(), err)
		}
	})
}

// TestSplitShareComputesOncePerP: the heuristics of one selection split
// the tree once per p, concurrently, and schedule exactly as unshared
// runs do; a second p replaces the entry.
func TestSplitShareComputesOncePerP(t *testing.T) {
	tr := allocTree(12, 500)
	pc := NewPrecompute(tr)
	var sh splitShare
	var wg sync.WaitGroup
	got := make([]Splitting, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = sh.get(pc, 4)
		}()
	}
	wg.Wait()
	for _, sp := range got[1:] {
		if &sp.SubtreeRoots[0] != &got[0].SubtreeRoots[0] {
			t.Fatal("concurrent gets of one p computed the splitting more than once")
		}
	}
	if sp := sh.get(pc, 8); &sp.SubtreeRoots[0] == &got[0].SubtreeRoots[0] || sh.p != 8 {
		t.Fatal("a second p reused the first p's splitting")
	}

	opts := Options{Processors: 4, Heuristics: []HeuristicID{IDParSubtrees, IDParInnerFirst, IDParSubtreesOptim}}
	hs, _, err := opts.SelectPre(pc)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{4, 3, 4} {
		for _, h := range hs {
			s, err := h.Run(tr, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pc.Run(h.ID, machine.Uniform(p), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSchedule(s, want); err != nil {
				t.Fatalf("%s p=%d through the selection: %v", h.Name, p, err)
			}
		}
	}
}
