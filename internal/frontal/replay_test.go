package frontal

import (
	"math/rand"
	"testing"

	"treesched/internal/machine"
	"treesched/internal/sched"
	"treesched/internal/spm"
)

// TestScheduleReplayMatchesSimulator is E15's parallel half: replaying any
// heuristic schedule with real fronts measures exactly the peak memory the
// abstract discrete-event simulator predicts, and the factor stays correct.
func TestScheduleReplayMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 25; trial++ {
		p := connectedPattern(rng, trial)
		perm := ordering(p, trial)
		a := SPDFromPattern(rng, p)
		f, err := NewFactorizer(p, perm, a)
		if err != nil {
			t.Fatal(err)
		}
		tr := mustTree(t, p, perm)
		w := make([]float64, tr.Len())
		for v := range w {
			w[v] = tr.W(v)
		}
		for _, h := range sched.Heuristics() {
			for _, procs := range []int{2, 4} {
				s, err := h.Run(tr, procs)
				if err != nil {
					t.Fatal(err)
				}
				res, err := f.Replay(ScheduleReplay{Start: s.Start, W: w})
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, h.Name, err)
				}
				if want := sched.PeakMemory(tr, s); res.PeakEntries != want {
					t.Fatalf("trial %d %s p=%d: engine peak %d, simulator %d",
						trial, h.Name, procs, res.PeakEntries, want)
				}
				if err := f.Verify(res.L, 1e-8); err != nil {
					t.Fatalf("trial %d %s: %v", trial, h.Name, err)
				}
			}
		}
	}
}

func TestReplayValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	p := spm.Grid2D(3, 3)
	f, err := NewFactorizer(p, spm.NaturalOrder(p.Len()), SPDFromPattern(rng, p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Replay(ScheduleReplay{Start: []float64{0}, W: []float64{1}}); err == nil {
		t.Error("short timeline accepted")
	}
	start := make([]float64, p.Len())
	w := make([]float64, p.Len())
	if _, err := f.Replay(ScheduleReplay{Start: start, W: w}); err == nil {
		t.Error("zero durations accepted")
	}
}

// TestReplaySequentialDegenerate: a one-processor timeline in postorder
// must reproduce the sequential Factorize peak.
func TestReplaySequentialDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	p := spm.Grid2D(5, 5)
	perm := spm.NestedDissection(p)
	f, err := NewFactorizer(p, perm, SPDFromPattern(rng, p))
	if err != nil {
		t.Fatal(err)
	}
	tr := mustTree(t, p, perm)
	s, err := sched.NewPrecompute(tr).Run(sched.IDParInnerFirst, machine.Uniform(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, tr.Len())
	order := make([]int, 0, tr.Len())
	for v := range w {
		w[v] = tr.W(v)
	}
	// Completion order of the sequential schedule.
	type se struct {
		v int
		t float64
	}
	evs := make([]se, tr.Len())
	for v := 0; v < tr.Len(); v++ {
		evs[v] = se{v, s.Start[v]}
	}
	for i := range evs {
		for j := i + 1; j < len(evs); j++ {
			if evs[j].t < evs[i].t {
				evs[i], evs[j] = evs[j], evs[i]
			}
		}
	}
	for _, e := range evs {
		order = append(order, e.v)
	}
	seq, err := f.Factorize(order)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Replay(ScheduleReplay{Start: s.Start, W: w})
	if err != nil {
		t.Fatal(err)
	}
	if seq.PeakEntries != rep.PeakEntries {
		t.Fatalf("sequential replay peak %d != Factorize peak %d", rep.PeakEntries, seq.PeakEntries)
	}
}
