package sched_test

import (
	"math"
	"math/rand"
	"testing"

	"treesched/internal/pebble"
	"treesched/internal/sched"
	"treesched/internal/tree"
)

func TestMemCappedBookingValidAndWithinCap(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 40; trial++ {
		tr := randomTree(rng, 2+rng.Intn(150))
		mseq := sched.MemoryLowerBound(tr)
		for _, p := range []int{2, 8} {
			if _, err := runP(tr, sched.IDMemCappedBooking, p, mseq-1); err == nil {
				t.Fatalf("cap below M_seq accepted")
			}
			for _, mult := range []int64{1, 2, 10} {
				cap := mult * mseq
				s, err := runP(tr, sched.IDMemCappedBooking, p, cap)
				if err != nil {
					t.Fatalf("MemCappedBooking(cap=%d): %v", cap, err)
				}
				if err := s.Validate(tr); err != nil {
					t.Fatalf("invalid schedule: %v", err)
				}
				if m := sched.PeakMemory(tr, s); m > cap {
					t.Fatalf("cap %d violated: used %d", cap, m)
				}
			}
		}
	}
}

func TestMemCappedBookingRejectsBadProcs(t *testing.T) {
	tr := tree.MustNew([]int{tree.None}, []float64{1}, []int64{0}, []int64{1})
	if _, err := selectCapped(t, tr, sched.IDMemCappedBooking).Run(tr, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
}

// TestBookingBeatsActivationOrder: with a generous cap, the booking
// scheduler must exploit parallelism that strict σ-order activation cannot,
// and must never be slower on average.
func TestBookingBeatsActivationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var bookWins, actWins int
	for trial := 0; trial < 30; trial++ {
		tr := randomTree(rng, 50+rng.Intn(150))
		cap := 8 * sched.MemoryLowerBound(tr)
		sb, err := runP(tr, sched.IDMemCappedBooking, 8, cap)
		if err != nil {
			t.Fatal(err)
		}
		sa, err := runP(tr, sched.IDMemCapped, 8, cap)
		if err != nil {
			t.Fatal(err)
		}
		mb, ma := sb.Makespan(tr), sa.Makespan(tr)
		if mb < ma-1e-9 {
			bookWins++
		}
		if ma < mb-1e-9 {
			actWins++
		}
	}
	if bookWins <= actWins {
		t.Fatalf("booking won %d, activation-order won %d; booking should dominate with loose caps",
			bookWins, actWins)
	}
}

// TestBookingWithHugeCapNearsListScheduling: the cap-free limit of the
// booking scheduler is deepest-first list scheduling; with an enormous cap
// its makespan must be close to ParDeepestFirst's.
func TestBookingWithHugeCapNearsListScheduling(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		tr := randomTree(rng, 50+rng.Intn(100))
		s, err := runP(tr, sched.IDMemCappedBooking, 4, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		d, err := runP(tr, sched.IDParDeepestFirst, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan(tr) > 1.5*d.Makespan(tr) {
			t.Fatalf("booking with huge cap %.4g much slower than deepest-first %.4g",
				s.Makespan(tr), d.Makespan(tr))
		}
	}
}

// TestBookingOnSpiderRespectsTightCap reproduces the Figure 5 stress case:
// the spider tree blows up ParDeepestFirst's memory, but booking with
// cap = M_seq+2 must stay within it and still finish.
func TestBookingOnSpiderRespectsTightCap(t *testing.T) {
	tr := pebble.SpiderTree(20, 4)
	mseq := sched.MemoryLowerBound(tr) // 3
	cap := mseq + 2
	s, err := runP(tr, sched.IDMemCappedBooking, 4, cap)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(tr); err != nil {
		t.Fatal(err)
	}
	if m := sched.PeakMemory(tr, s); m > cap {
		t.Fatalf("cap %d violated: %d", cap, m)
	}
	// Sanity: unconstrained deepest-first uses far more than the cap here.
	d, err := runP(tr, sched.IDParDeepestFirst, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := sched.PeakMemory(tr, d); m <= cap {
		t.Fatalf("spider no longer stresses memory (%d <= %d)", m, cap)
	}
}

func TestBookingSequentialCapIsSequentialPeak(t *testing.T) {
	// cap = M_seq on a chain: the schedule degenerates to the sequential
	// traversal.
	rng := rand.New(rand.NewSource(54))
	tr := tree.Chain(rng, 60, tree.PebbleWeights)
	mseq := sched.MemoryLowerBound(tr)
	s, err := runP(tr, sched.IDMemCappedBooking, 8, mseq)
	if err != nil {
		t.Fatal(err)
	}
	if ms := s.Makespan(tr); math.Abs(ms-tr.TotalW()) > 1e-9 {
		t.Fatalf("chain makespan %g, want %g", ms, tr.TotalW())
	}
}

func TestBookingEmptyTree(t *testing.T) {
	empty, _ := tree.New(nil, nil, nil, nil)
	s, err := runP(empty, sched.IDMemCappedBooking, 3, 0)
	if err != nil || s.Makespan(empty) != 0 {
		t.Fatalf("empty tree: %v", err)
	}
}

// TestBookingMakespanMonotonicTrend: averaged over instances, a looser cap
// must not slow the booking scheduler down.
func TestBookingMakespanMonotonicTrend(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var sumTight, sumLoose float64
	for trial := 0; trial < 25; trial++ {
		tr := randomTree(rng, 80+rng.Intn(80))
		mseq := sched.MemoryLowerBound(tr)
		st, err := runP(tr, sched.IDMemCappedBooking, 8, mseq)
		if err != nil {
			t.Fatal(err)
		}
		sl, err := runP(tr, sched.IDMemCappedBooking, 8, 16*mseq)
		if err != nil {
			t.Fatal(err)
		}
		sumTight += st.Makespan(tr)
		sumLoose += sl.Makespan(tr)
	}
	if sumLoose > sumTight*1.001 {
		t.Fatalf("loose caps slower on average: %.4g vs %.4g", sumLoose, sumTight)
	}
}
