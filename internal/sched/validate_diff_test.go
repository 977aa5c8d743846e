package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// validateTrees returns trees of every generator family, with the work of
// some nodes zeroed so that zero-duration tasks meet the overlap check.
func validateTrees(rng *rand.Rand) []*tree.Tree {
	ws := tree.WeightSpec{WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20}
	var out []*tree.Tree
	for _, n := range []int{1, 2, 7, 40, 150} {
		for _, t := range []*tree.Tree{
			tree.RandomAttachment(rng, n, ws),
			tree.RandomPrufer(rng, n, ws),
			tree.RandomBinary(rng, n, ws),
			tree.Chain(rng, n, ws),
			tree.Fork(rng, n, ws),
			tree.Caterpillar(rng, max(1, n/4), 3, ws),
		} {
			out = append(out, t, withZeroWork(rng, t))
		}
	}
	return out
}

// withZeroWork copies t with the work of about a fifth of its nodes set
// to zero.
func withZeroWork(rng *rand.Rand, t *tree.Tree) *tree.Tree {
	n := t.Len()
	parent, w := make([]int, n), make([]float64, n)
	nn, f := make([]int64, n), make([]int64, n)
	for v := 0; v < n; v++ {
		parent[v], w[v], nn[v], f[v] = t.Parent(v), t.W(v), t.N(v), t.F(v)
		if rng.Intn(5) == 0 {
			w[v] = 0
		}
	}
	return tree.MustNew(parent, w, nn, f)
}

// perturb edits a copy of s in one of several ways that may or may not
// break it, and never calls Invalidate: Validate must not trust the
// scheduler's cached peak.
func perturb(rng *rand.Rand, t *tree.Tree, s *Schedule) *Schedule {
	c := *s
	c.Start, c.Proc = slices.Clone(s.Start), slices.Clone(s.Proc)
	n := t.Len()
	v, u := rng.Intn(n), rng.Intn(n)
	switch rng.Intn(9) {
	case 0: // another processor
		c.Proc[v] = rng.Intn(c.P)
	case 1: // earlier or later by a fraction of the task's duration
		c.Start[v] = math.Max(0, c.Start[v]+(rng.Float64()*2-1)*c.Dur(t, v))
	case 2: // by less than the tolerance
		c.Start[v] += (rng.Float64()*2 - 1) * timeEps / 2
	case 3: // on top of another task
		c.Start[v], c.Proc[v] = c.Start[u], c.Proc[u]
	case 4: // right after another task, on its processor
		c.Start[v], c.Proc[v] = c.Start[u]+c.Dur(t, u), c.Proc[u]
	case 5: // two start times swapped
		c.Start[v], c.Start[u] = c.Start[u], c.Start[v]
	case 6: // an invalid processor
		c.Proc[v] = []int{-1, c.P}[rng.Intn(2)]
	case 7: // an invalid start time
		c.Start[v] = []float64{-1, math.NaN(), math.Inf(1)}[rng.Intn(3)]
	case 8: // two processors swapped
		c.Proc[v], c.Proc[u] = c.Proc[u], c.Proc[v]
	}
	return &c
}

// TestValidateMatchesReference runs every heuristic on uniform and
// heterogeneous machines, and checks that Validate accepts and rejects
// each schedule, and perturbed copies of it, exactly as the earlier
// sort-based check (refValidate) does.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2113))
	het, err := machine.ParseSpec("2x1.0+2x0.5")
	if err != nil {
		t.Fatal(err)
	}
	ids := []HeuristicID{
		IDParSubtrees, IDParSubtreesOptim, IDParInnerFirst, IDParDeepestFirst,
		IDParInnerFirstArbitrary, IDSequential, IDOptimalSequential,
		IDMemCapped, IDMemCappedBooking,
	}
	var accepted, rejected int
	for _, tr := range validateTrees(rng) {
		pc := NewPrecompute(tr)
		cap := CapFromFactor(1.5, pc.MSeq())
		for _, m := range []*machine.Model{machine.Uniform(1), machine.Uniform(3), het} {
			for _, id := range ids {
				s, err := pc.Run(id, m, cap)
				if err != nil {
					t.Fatalf("%s on %d nodes, machine %s: %v", id, tr.Len(), m.Spec(), err)
				}
				if err := s.Validate(tr); err != nil {
					t.Fatalf("%s on %d nodes, machine %s: valid schedule rejected: %v", id, tr.Len(), m.Spec(), err)
				}
				if tr.Len() == 0 {
					continue
				}
				for k := 0; k < 12; k++ {
					c := perturb(rng, tr, s)
					got, want := c.Validate(tr), refValidate(tr, c)
					if (got == nil) != (want == nil) {
						t.Fatalf("%s on %d nodes, machine %s, perturbation %d: Validate says %v, reference says %v",
							id, tr.Len(), m.Spec(), k, got, want)
					}
					if got == nil {
						accepted++
					} else {
						rejected++
					}
				}
			}
		}
	}
	t.Logf("perturbed schedules: %d accepted, %d rejected by both", accepted, rejected)
	if accepted == 0 || rejected == 0 {
		t.Fatalf("perturbations exercised one side only: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestValidateRejectsEditedOverlap edits a scheduler-built schedule, whose
// peak the scheduler cached, into an overlap without calling Invalidate:
// Validate must still find the overlap.
func TestValidateRejectsEditedOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := tree.Fork(rng, 30, tree.WeightSpec{WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20})
	s, err := NewPrecompute(tr).Run(IDParInnerFirst, machine.Uniform(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.peakKnown {
		t.Fatal("the scheduler cached no peak; the case needs one")
	}
	for a := range s.Start {
		for b := range s.Start {
			if s.Proc[a] == s.Proc[b] || s.Start[a] >= s.Finish(tr, b) || s.Start[b] >= s.Finish(tr, a) {
				continue
			}
			s.Proc[b] = s.Proc[a] // the two now run at once on one processor
			if err := s.Validate(tr); err == nil {
				t.Fatalf("tasks %d and %d overlap on processor %d, but Validate accepted the schedule", a, b, s.Proc[a])
			}
			if refValidate(tr, s) == nil {
				t.Fatal("the reference accepted the overlap too; the case is broken")
			}
			return
		}
	}
	t.Fatal("no two tasks run at once; the case needs a wider schedule")
}
