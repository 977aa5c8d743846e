package sched_test

import (
	"math/rand"
	"testing"

	"treesched/internal/sched"
)

// TestHeuristicsDeterministic: identical inputs must give identical
// schedules — the heuristics break all priority ties explicitly, and the
// harness depends on reproducibility.
func TestHeuristicsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 10; trial++ {
		tr := randomTree(rng, 50+rng.Intn(150))
		for _, h := range sched.Heuristics() {
			s1, err := h.Run(tr, 4)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := h.Run(tr, 4)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < tr.Len(); v++ {
				if s1.Start[v] != s2.Start[v] || s1.Proc[v] != s2.Proc[v] {
					t.Fatalf("%s: node %d differs between runs", h.Name, v)
				}
			}
		}
	}
}

func TestCappedSchedulersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	tr := randomTree(rng, 120)
	cap := 3 * sched.MemoryLowerBound(tr)
	for _, f := range []func() (*sched.Schedule, error){
		func() (*sched.Schedule, error) { return runP(tr, sched.IDMemCapped, 4, cap) },
		func() (*sched.Schedule, error) { return runP(tr, sched.IDMemCappedBooking, 4, cap) },
	} {
		s1, err := f()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := f()
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < tr.Len(); v++ {
			if s1.Start[v] != s2.Start[v] {
				t.Fatalf("capped scheduler nondeterministic at node %d", v)
			}
		}
	}
}
