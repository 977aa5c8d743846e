package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// checkListSchedulersAgainstReference compares the rank permutations, the
// ready set and the event loop with their references (list_ref_test.go)
// on t with p processors: each of the four rank permutations must be the
// comparator order, and ParInnerFirst, ParInnerFirstArbitrary (through
// Precompute.Run and ByName), ParDeepestFirst, MemCapped and MemCappedBooking
// (cap factors 1, 1.5 and 3) must give the same start times, processors
// and cached peak on the uniform machine and on a heterogeneous one.
func checkListSchedulersAgainstReference(t *tree.Tree, p int) error {
	pc := NewPrecompute(t)
	ref := refRankings(pc)
	for _, r := range []struct {
		name string
		got  rankPerm
		want []uint64
	}{
		{"inner-first", pc.rankInnerFirst(), ref.inner},
		{"inner-first arbitrary", pc.rankInnerFirstArbitrary(), ref.innerArb},
		{"deepest-first", pc.rankDeepestFirst(), ref.deep},
		{"booking", pc.rankBooking(), ref.book},
	} {
		want := refDense(r.want)
		for v := range want {
			if got := r.got.rank[v]; uint64(got) != want[v] || r.got.byRank[got] != int32(v) {
				return fmt.Errorf("%s ranking: node %d at rank %d (rank %d holds %d), reference %d", r.name, v, got, got, r.got.byRank[got], want[v])
			}
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
	type run struct {
		name      string
		got, want func() (*Schedule, error)
	}
	for _, m := range []*machine.Model{machine.Uniform(p), het} {
		runs := []run{
			{"ParInnerFirst", func() (*Schedule, error) { return pc.Run(IDParInnerFirst, m, 0) },
				func() (*Schedule, error) { return refListScheduleRank(t, m, ref.inner) }},
			{"ParInnerFirstArbitrary", func() (*Schedule, error) { return pc.Run(IDParInnerFirstArbitrary, m, 0) },
				func() (*Schedule, error) { return refListScheduleRank(t, m, ref.innerArb) }},
			{"ParDeepestFirst", func() (*Schedule, error) { return pc.Run(IDParDeepestFirst, m, 0) },
				func() (*Schedule, error) { return refListScheduleRank(t, m, ref.deep) }},
		}
		if m.IsUniform() {
			arb, _ := ByName("ParInnerFirstArbitrary")
			runs = append(runs, run{"ByName ParInnerFirstArbitrary", func() (*Schedule, error) { return arb.Run(t, p) },
				func() (*Schedule, error) { return refListScheduleRank(t, m, ref.innerArb) }})
		}
		for _, factor := range []float64{1, 1.5, 3} {
			cap := CapFromFactor(factor, pc.MSeq())
			runs = append(runs,
				run{fmt.Sprintf("MemCapped ×%g", factor), func() (*Schedule, error) { return pc.Run(IDMemCapped, m, cap) },
					func() (*Schedule, error) { return refMemCapped(pc, m, cap) }},
				run{fmt.Sprintf("MemCappedBooking ×%g", factor), func() (*Schedule, error) { return pc.Run(IDMemCappedBooking, m, cap) },
					func() (*Schedule, error) { return refMemCappedBooking(pc, m, cap, ref.book) }})
		}
		for _, r := range runs {
			got, err := r.got()
			if err != nil {
				return fmt.Errorf("p=%d machine %s %s: %w", p, m.Spec(), r.name, err)
			}
			want, err := r.want()
			if err != nil {
				return fmt.Errorf("p=%d machine %s %s reference: %w", p, m.Spec(), r.name, err)
			}
			if err := sameSchedule(got, want); err != nil {
				return fmt.Errorf("p=%d machine %s %s: %w", p, m.Spec(), r.name, err)
			}
		}
	}
	return nil
}

// withZeroWeights rebuilds t with every third node's weight set to zero.
// With negative set, the root and every other zeroed node weigh -0 instead,
// so w-depths of +0 and -0 meet: the orders must treat them as equal.
func withZeroWeights(t *tree.Tree, negative bool) *tree.Tree {
	n := t.Len()
	parent, w, nn, f := make([]int, n), make([]float64, n), make([]int64, n), make([]int64, n)
	negZero := math.Copysign(0, -1)
	for v := 0; v < n; v++ {
		parent[v], w[v], nn[v], f[v] = t.Parent(v), t.W(v), t.N(v), t.F(v)
		if v%3 == 0 {
			w[v] = 0
			if negative && v%2 == 0 {
				w[v] = negZero
			}
		}
	}
	if negative {
		w[t.Root()] = negZero
	}
	return tree.MustNew(parent, w, nn, f)
}

// TestListSchedulersMatchReference runs the differential check over every
// generator family with continuous, integer (tied), zero and -0 weights,
// at p from 1 to 32.
func TestListSchedulersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	specs := []tree.WeightSpec{
		{WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20},
		{WMin: 1, WMax: 1, NMin: 0, NMax: 2, FMin: 0, FMax: 3}, // ties everywhere
		{WMin: 0, WMax: 2, NMin: 0, NMax: 3, FMin: 0, FMax: 9}, // zeroed below
		{WMin: 0, WMax: 2, NMin: 0, NMax: 3, FMin: 0, FMax: 9}, // -0 below
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
		kind := trial / len(gens) % len(specs) // every family meets every weight kind
		tr := gens[trial%len(gens)](1+rng.Intn(300), specs[kind])
		if kind >= 2 {
			tr = withZeroWeights(tr, kind == 3)
		}
		for _, p := range []int{1, 2, 3, 5, 8, 16, 32} {
			if err := checkListSchedulersAgainstReference(tr, p); err != nil {
				t.Fatalf("trial %d (%d nodes): %v", trial, tr.Len(), err)
			}
		}
	}
}

// FuzzListSchedulers checks the rank permutations and the event-driven
// schedulers against the reference implementation on trees built from
// bytes (fuzzTree), -0 weights included.
func FuzzListSchedulers(f *testing.F) {
	f.Add([]byte{0x83, 70, 1, 80, 2, 90, 3, 100, 4})
	f.Add([]byte{0x45, 0, 0, 0, 0, 70, 0, 71, 0, 72, 4})
	f.Add([]byte{0xdf, 200, 17, 201, 33, 0, 49, 255, 65, 66, 81, 67, 97, 68, 113})
	rng := rand.New(rand.NewSource(29))
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
		if err := checkListSchedulersAgainstReference(tr, p); err != nil {
			t.Fatalf("%d nodes: %v", tr.Len(), err)
		}
	})
}
