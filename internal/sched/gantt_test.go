package sched_test

import (
	"math/rand"
	"strings"
	"testing"

	"treesched/internal/sched"
	"treesched/internal/tree"
)

func TestGanttRendersAllProcessors(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tr := randomTree(rng, 30)
	s, err := runP(tr, sched.IDParDeepestFirst, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := sched.GanttString(tr, s, 80)
	for _, want := range []string{"P0", "P1", "P2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gantt missing %s:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "#") && !strings.Contains(out, "[") {
		t.Fatalf("gantt has no task marks:\n%s", out)
	}
}

func TestGanttEmptySchedule(t *testing.T) {
	empty, _ := tree.New(nil, nil, nil, nil)
	s := &sched.Schedule{P: 2}
	if out := sched.GanttString(empty, s, 40); !strings.Contains(out, "empty") {
		t.Fatalf("empty gantt: %q", out)
	}
}

func TestGanttTinyWidthClamped(t *testing.T) {
	tr := tree.MustNew([]int{tree.None}, []float64{1}, []int64{0}, []int64{1})
	s := &sched.Schedule{Start: []float64{0}, Proc: []int{0}, P: 1}
	out := sched.GanttString(tr, s, 1) // clamps to 10 columns
	if !strings.Contains(out, "P0") {
		t.Fatalf("gantt: %q", out)
	}
}

func TestUtilization(t *testing.T) {
	// Two unit tasks on two processors in parallel, then the root:
	// total W = 3, makespan 2, P = 2 -> utilization 0.75.
	tr := tree.MustNew([]int{tree.None, 0, 0},
		[]float64{1, 1, 1}, []int64{0, 0, 0}, []int64{1, 1, 1})
	s := &sched.Schedule{Start: []float64{1, 0, 0}, Proc: []int{0, 0, 1}, P: 2}
	if got := sched.Utilization(tr, s); got != 0.75 {
		t.Fatalf("Utilization = %g, want 0.75", got)
	}
	empty, _ := tree.New(nil, nil, nil, nil)
	if got := sched.Utilization(empty, &sched.Schedule{P: 2}); got != 0 {
		t.Fatalf("empty utilization = %g", got)
	}
}

func TestUtilizationSequentialIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	tr := randomTree(rng, 40)
	s, err := runP(tr, sched.IDParInnerFirst, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u := sched.Utilization(tr, s); u < 1-1e-9 || u > 1+1e-9 {
		t.Fatalf("sequential utilization = %g, want 1", u)
	}
}
