package sched

import (
	"math/rand"
	"testing"

	"treesched/internal/traversal"
	"treesched/internal/tree"
)

// allocTree builds a moderately sized random tree for the steady-state
// allocation tests (package-internal so the tests can reach the cached
// fields and the rank-keyed entry points directly).
func allocTree(seed int64, n int) *tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	ws := tree.WeightSpec{WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20}
	return tree.RandomAttachment(rng, n, ws)
}

// TestAllocsListSchedule pins the pooling contract of the list scheduler:
// on a warm pool and a warm Precompute, a schedule costs only its result
// (the Schedule struct and its two slices) — at most 5 allocations.
func TestAllocsListSchedule(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	tr := allocTree(7, 2000)
	pc := NewPrecompute(tr)
	if _, err := pc.ParInnerFirst(4); err != nil { // warm pool + ranks
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := pc.ParInnerFirst(4); err != nil {
			t.Fatal(err)
		}
	})
	if got > 5 {
		t.Errorf("ListSchedule allocates %.1f/op on a warm pool, want <= 5", got)
	}
}

// TestAllocsBestPostOrder: the traversal allocates only the returned
// order on a warm pool.
func TestAllocsBestPostOrder(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	tr := allocTree(8, 2000)
	traversal.BestPostOrder(tr) // warm pool
	got := testing.AllocsPerRun(20, func() { traversal.BestPostOrder(tr) })
	if got > 2 {
		t.Errorf("BestPostOrder allocates %.1f/op on a warm pool, want <= 2", got)
	}
}

// TestAllocsPeakMemory: the event-replay simulator is allocation-free on
// a warm pool (the fast path via the cached peak trivially is; Invalidate
// forces the replay).
func TestAllocsPeakMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	tr := allocTree(9, 2000)
	pc := NewPrecompute(tr)
	s, err := pc.ParDeepestFirst(4)
	if err != nil {
		t.Fatal(err)
	}
	s.Invalidate()
	PeakMemory(tr, s) // warm pool
	got := testing.AllocsPerRun(20, func() { PeakMemory(tr, s) })
	if got > 1 {
		t.Errorf("PeakMemory allocates %.1f/op on a warm pool, want <= 1", got)
	}
}

// TestAllocsEvaluate: the combined validate+measure pass is
// allocation-free for schedules with an inline-tracked peak.
func TestAllocsEvaluate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	tr := allocTree(10, 2000)
	pc := NewPrecompute(tr)
	s, err := pc.ParInnerFirst(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Evaluate(tr, s); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, _, err := Evaluate(tr, s); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Errorf("Evaluate allocates %.1f/op on a cached schedule, want <= 1", got)
	}
}

// TestCoincidentPulsesReplayCausally pins the replay order of coincident
// zero-duration tasks: a child's pulse executes before its parent's, so
// the parent's release of the child's output cannot precede its
// production — the peak counts both files resident at the handoff. It
// also pins that SequentialSchedule declines to cache a peak on trees
// with zero-duration tasks (the σ order and the replay linearization of
// coincident pulses may differ).
func TestCoincidentPulsesReplayCausally(t *testing.T) {
	tr := tree.MustNew([]int{tree.None, 0}, []float64{0, 0}, []int64{0, 0}, []int64{1, 1})
	s, err := SequentialSchedule(tr, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.peakKnown {
		t.Error("SequentialSchedule cached a peak on a tree with zero-duration tasks")
	}
	if got := PeakMemory(tr, s); got != 2 {
		t.Errorf("replayed peak = %d, want 2 (child pulse before parent pulse)", got)
	}
	if _, peak, err := Evaluate(tr, s); err != nil || peak != 2 {
		t.Errorf("Evaluate peak = %d (err %v), want 2", peak, err)
	}
}

// TestInlinePeakMatchesSimulator cross-checks the schedulers' inline peak
// tracking against the event-replay simulator on random trees — including
// trees with zero-duration tasks, where the schedulers must decline to
// cache and the values still agree because the replay is authoritative.
func TestInlinePeakMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		ws := tree.WeightSpec{WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20}
		if trial%3 == 0 {
			ws.WMin = 0 // mix in zero-duration tasks
		}
		tr := tree.RandomAttachment(rng, 50+rng.Intn(200), ws)
		pc := NewPrecompute(tr)
		for _, run := range []func() (*Schedule, error){
			func() (*Schedule, error) { return pc.ParInnerFirst(3) },
			func() (*Schedule, error) { return pc.ParDeepestFirst(3) },
			func() (*Schedule, error) { return pc.ParSubtrees(3) },
			func() (*Schedule, error) { return pc.ParSubtreesOptim(3) },
			func() (*Schedule, error) { return pc.MemCapped(3, 3*pc.MSeq()) },
			func() (*Schedule, error) { return pc.MemCappedBooking(3, 3*pc.MSeq()) },
			func() (*Schedule, error) { return SequentialSchedule(pc.Tree(), pc.Order()) },
		} {
			s, err := run()
			if err != nil {
				t.Fatal(err)
			}
			cached, known := s.peak, s.peakKnown
			s.Invalidate()
			replay := PeakMemory(tr, s)
			if known && cached != replay {
				t.Fatalf("trial %d: inline peak %d != replayed peak %d", trial, cached, replay)
			}
		}
	}
}

// TestAllocsPrecomputeCacheHit pins the precompute-cache hot path: a warm
// hit must stay within 2 allocations (it performs none — the budget is
// headroom for runtime map internals), so repeat trees ride the request
// path without touching the allocator.
func TestAllocsPrecomputeCacheHit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	pc := NewPrecompute(allocTree(11, 2000))
	c := NewPrecomputeCache(1 << 30)
	if !c.Add("k", pc) {
		t.Fatal("warm entry not admitted")
	}
	got := testing.AllocsPerRun(50, func() {
		if _, ok := c.Get("k"); !ok {
			t.Fatal("warm cache missed")
		}
	})
	if got > 2 {
		t.Errorf("precompute cache hit allocates %.1f/op, want <= 2", got)
	}
}
