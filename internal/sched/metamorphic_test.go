package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// metamorphicRun is one scheduler of the metamorphic suite: a heuristic
// and, for the capped pair, its cap as a factor of M_seq (0: uncapped).
type metamorphicRun struct {
	id     HeuristicID
	factor float64
}

func (r metamorphicRun) String() string {
	if r.factor == 0 {
		return r.id.String()
	}
	return fmt.Sprintf("%s(%g×)", r.id, r.factor)
}

// rescaled returns t with every w multiplied by wScale and every n and f
// by memScale.
func rescaled(t *tree.Tree, wScale float64, memScale int64) *tree.Tree {
	n := t.Len()
	parent, w, nn, f := make([]int, n), make([]float64, n), make([]int64, n), make([]int64, n)
	for v := 0; v < n; v++ {
		parent[v], w[v], nn[v], f[v] = t.Parent(v), t.W(v)*wScale, t.N(v)*memScale, t.F(v)*memScale
	}
	return tree.MustNew(parent, w, nn, f)
}

// TestMetamorphicProductionSize runs every runnable heuristic on the five
// core families at 10², 10³ and 10⁴ nodes (10⁴ is skipped under the race
// detector), on the uniform machine of 8 processors and on an
// 8-processor heterogeneous one, the capped pair at absolute caps of
// ⌈1×⌉, ⌈1.5×⌉ and ⌈3×⌉ M_seq. Each schedule must be valid, a cached
// inline peak must equal the forced replay, and a capped peak must stay
// at or below its cap. Two rescalings of the tree must transform the
// schedule exactly: multiplying every w by 2^k (k = ±3) multiplies every
// start and the makespan by 2^k and keeps every processor and the peak;
// multiplying every n and f by 3, with the cap tripled too, keeps every
// start and processor and triples the peak.
func TestMetamorphicProductionSize(t *testing.T) {
	sizes := []int{100, 1000, 10000}
	if raceEnabled {
		sizes = sizes[:2]
	}
	het, err := machine.ParseSpec("4+4x0.5")
	if err != nil {
		t.Fatal(err)
	}
	var runs []metamorphicRun
	for _, id := range []HeuristicID{IDParSubtrees, IDParSubtreesOptim, IDParInnerFirst, IDParDeepestFirst,
		IDParInnerFirstArbitrary, IDSequential, IDOptimalSequential} {
		runs = append(runs, metamorphicRun{id: id})
	}
	for _, id := range []HeuristicID{IDMemCapped, IDMemCappedBooking} {
		for _, f := range []float64{1, 1.5, 3} {
			runs = append(runs, metamorphicRun{id, f})
		}
	}
	ws := tree.WeightSpec{WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20}
	families := []struct {
		name string
		gen  func(rng *rand.Rand, n int) *tree.Tree
	}{
		{"attachment", func(rng *rand.Rand, n int) *tree.Tree { return tree.RandomAttachment(rng, n, ws) }},
		{"binary", func(rng *rand.Rand, n int) *tree.Tree { return tree.RandomBinary(rng, n, ws) }},
		{"chain", func(rng *rand.Rand, n int) *tree.Tree { return tree.Chain(rng, n, ws) }},
		{"fork", func(rng *rand.Rand, n int) *tree.Tree { return tree.Fork(rng, n, ws) }},
		{"caterpillar", func(rng *rand.Rand, n int) *tree.Tree { return tree.Caterpillar(rng, n/4, 3, ws) }},
	}
	for fi, fam := range families {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/%d", fam.name, n), func(t *testing.T) {
				t.Parallel()
				base := fam.gen(rand.New(rand.NewSource(int64(100*fi+n))), n)
				pcs := map[string]*Precompute{"base": NewPrecompute(base)}
				for _, k := range []int{3, -3} {
					pcs[fmt.Sprintf("w×2^%d", k)] = NewPrecompute(rescaled(base, math.Ldexp(1, k), 1))
				}
				pcs["nf×3"] = NewPrecompute(rescaled(base, 1, 3))
				for _, m := range []*machine.Model{machine.Uniform(8), het} {
					for _, r := range runs {
						checkMetamorphic(t, pcs, m, r)
					}
				}
			})
		}
	}
}

// checkMetamorphic runs r on m over the base tree and its rescalings in
// pcs and checks the relations TestMetamorphicProductionSize states.
func checkMetamorphic(t *testing.T, pcs map[string]*Precompute, m *machine.Model, r metamorphicRun) {
	t.Helper()
	var cap int64
	if r.factor > 0 {
		cap = CapFromFactor(r.factor, pcs["base"].MSeq())
	}
	run := func(variant string, cap int64) (*Schedule, float64, int64) {
		pc := pcs[variant]
		s, err := pc.Run(r.id, m, cap)
		if err != nil {
			t.Fatalf("%s on %s, %s: %v", r, m.Spec(), variant, err)
		}
		_, peak, err := evaluate(pc.Tree(), s, true)
		if err != nil {
			t.Fatalf("%s on %s, %s: invalid schedule: %v", r, m.Spec(), variant, err)
		}
		if s.peakKnown && s.peak != peak {
			t.Fatalf("%s on %s, %s: inline peak %d, replay %d", r, m.Spec(), variant, s.peak, peak)
		}
		if r.factor > 0 && peak > cap {
			t.Fatalf("%s on %s, %s: peak %d above the cap %d", r, m.Spec(), variant, peak, cap)
		}
		return s, s.Makespan(pc.Tree()), peak
	}
	s, makespan, peak := run("base", cap)
	for _, k := range []int{3, -3} {
		variant := fmt.Sprintf("w×2^%d", k)
		got, gotMakespan, gotPeak := run(variant, cap)
		for v := range s.Start {
			if want := math.Ldexp(s.Start[v], k); got.Start[v] != want || got.Proc[v] != s.Proc[v] {
				t.Fatalf("%s on %s, %s: node %d starts at %g on P%d, want %g on P%d",
					r, m.Spec(), variant, v, got.Start[v], got.Proc[v], want, s.Proc[v])
			}
		}
		if want := math.Ldexp(makespan, k); gotMakespan != want || gotPeak != peak {
			t.Fatalf("%s on %s, %s: makespan %g and peak %d, want %g and %d",
				r, m.Spec(), variant, gotMakespan, gotPeak, want, peak)
		}
	}
	got, _, gotPeak := run("nf×3", 3*cap)
	for v := range s.Start {
		if got.Start[v] != s.Start[v] || got.Proc[v] != s.Proc[v] {
			t.Fatalf("%s on %s, nf×3: node %d starts at %g on P%d, want %g on P%d",
				r, m.Spec(), v, got.Start[v], got.Proc[v], s.Start[v], s.Proc[v])
		}
	}
	if gotPeak != 3*peak {
		t.Fatalf("%s on %s, nf×3: peak %d, want 3 × %d", r, m.Spec(), gotPeak, peak)
	}
}
