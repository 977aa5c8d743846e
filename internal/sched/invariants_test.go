package sched_test

import (
	"math/rand"
	"sort"
	"testing"

	"treesched/internal/sched"
	"treesched/internal/tree"
)

// verifyGreedy checks the defining property of list scheduling: no task
// waits while a processor is idle. For every task v, between the time its
// last child finishes and its own start, all p processors must be busy.
func verifyGreedy(t *testing.T, tr *tree.Tree, s *sched.Schedule) {
	t.Helper()
	n := tr.Len()
	readyAt := make([]float64, n)
	for v := 0; v < n; v++ {
		for _, c := range tr.Children(v) {
			if f := s.Finish(tr, c); f > readyAt[v] {
				readyAt[v] = f
			}
		}
	}
	// Busy intervals per processor, merged over all processors by sweeping.
	type ev struct {
		at float64
		d  int
	}
	events := make([]ev, 0, 2*n)
	for v := 0; v < n; v++ {
		if tr.W(v) == 0 {
			continue
		}
		events = append(events, ev{s.Start[v], +1}, ev{s.Finish(tr, v), -1})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return events[a].d < events[b].d // ends before starts
	})
	// busy(t) as a step function: times[i] -> busy level until times[i+1].
	var times []float64
	var busy []int
	cur := 0
	for i := 0; i < len(events); {
		j := i
		for j < len(events) && events[j].at == events[i].at {
			cur += events[j].d
			j++
		}
		times = append(times, events[i].at)
		busy = append(busy, cur)
		i = j
	}
	busyDuring := func(lo, hi float64) bool {
		// All processors busy throughout (lo, hi)?
		for i := range times {
			start := times[i]
			end := s.Makespan(tr) + 1
			if i+1 < len(times) {
				end = times[i+1]
			}
			if start >= hi {
				break
			}
			if end <= lo {
				continue
			}
			if busy[i] < s.P {
				return false
			}
		}
		return true
	}
	for v := 0; v < n; v++ {
		if s.Start[v] > readyAt[v]+1e-9 {
			if !verifyWindow(busyDuring, readyAt[v], s.Start[v]) {
				t.Fatalf("task %d idles from %g to %g with a free processor",
					v, readyAt[v], s.Start[v])
			}
		}
	}
}

func verifyWindow(busyDuring func(lo, hi float64) bool, lo, hi float64) bool {
	return busyDuring(lo+1e-12, hi-1e-12)
}

func TestListSchedulesAreGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 20; trial++ {
		tr := randomTree(rng, 2+rng.Intn(120))
		for _, p := range []int{2, 4, 8} {
			for _, name := range []string{"ParInnerFirst", "ParDeepestFirst"} {
				h, _ := sched.ByName(name)
				s, err := h.Run(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				verifyGreedy(t, tr, s)
			}
		}
	}
}

// TestPeakAtLeastMaxFootprint: any schedule's peak memory is at least the
// largest single-task footprint.
func TestPeakAtLeastMaxFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 20; trial++ {
		tr := randomTree(rng, 2+rng.Intn(100))
		var maxFoot int64
		for v := 0; v < tr.Len(); v++ {
			if f := tr.ProcFootprint(v); f > maxFoot {
				maxFoot = f
			}
		}
		for _, h := range sched.Heuristics() {
			s, err := h.Run(tr, 4)
			if err != nil {
				t.Fatal(err)
			}
			if m := sched.PeakMemory(tr, s); m < maxFoot {
				t.Fatalf("%s: peak %d below max footprint %d", h.Name, m, maxFoot)
			}
		}
	}
}

// TestSplitSubtreesOptimalNeverWorseThanNaive validates Lemma 1 empirically
// (ablation E14): the rank-scanned splitting's predicted makespan is never
// above the naive first-feasible splitting's.
func TestSplitSubtreesOptimalNeverWorseThanNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	strictly := 0
	for trial := 0; trial < 60; trial++ {
		tr := randomTree(rng, 2+rng.Intn(200))
		for _, p := range []int{2, 4, 8} {
			opt, err := sched.SplitSubtrees(tr, p)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := sched.SplitSubtreesNaive(tr, p)
			if err != nil {
				t.Fatal(err)
			}
			if opt.PredictedMakespan > naive.PredictedMakespan+1e-9 {
				t.Fatalf("optimal splitting %g worse than naive %g (p=%d)",
					opt.PredictedMakespan, naive.PredictedMakespan, p)
			}
			if opt.PredictedMakespan < naive.PredictedMakespan-1e-9 {
				strictly++
			}
		}
	}
	if strictly == 0 {
		t.Fatal("optimal splitting never strictly better than naive in 180 cases")
	}
}

// TestSplitSubtreesNaiveStructure: the naive splitting is still a valid
// disjoint decomposition.
func TestSplitSubtreesNaiveStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	tr := randomTree(rng, 150)
	sp, err := sched.SplitSubtreesNaive(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, v := range sp.SeqNodes {
		seen[v] = true
	}
	total := len(sp.SeqNodes)
	for _, r := range sp.SubtreeRoots {
		for _, v := range tr.SubtreeNodes(r) {
			if seen[v] {
				t.Fatalf("node %d duplicated", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != tr.Len() {
		t.Fatalf("naive splitting covers %d of %d", total, tr.Len())
	}
}
