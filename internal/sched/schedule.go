// Package sched implements the parallel, memory-aware tree-scheduling
// heuristics of Marchal, Sinnen and Vivien (INRIA RR-8082, IPDPS 2013):
// ParSubtrees and ParSubtreesOptim (paper Alg. 1–2), ParInnerFirst and
// ParDeepestFirst (paper Alg. 3), together with two memory-capped
// schedulers (the paper's stated future work), a discrete-event
// peak-memory simulator and bi-objective lower bounds. The list heuristics
// and both capped schedulers share one event-driven engine (Alg. 3) and
// differ only in its admission rule: the ready task of lowest rank
// (ParInnerFirst, ParDeepestFirst), σ in order under the cap (MemCapped),
// or the ready set in booking rank within the memory not booked for σ's
// future (MemCappedBooking).
package sched

import (
	"treesched/internal/machine"
	"treesched/internal/tree"
)

// Schedule assigns every node of a tree a start time and a processor.
// Tasks are non-preemptive: node i occupies Proc[i] during
// [Start[i], Start[i]+Dur(t, i)) — w_i on a uniform machine, w_i/s_Proc[i]
// under a heterogeneous machine model.
type Schedule struct {
	Start []float64 // start time per node
	Proc  []int     // processor per node, in [0, P)
	P     int       // number of processors
	// M is the heterogeneous machine model the schedule was built for, or
	// nil for the paper's uniform machine of P unit-speed processors.
	// When set, M.P() == P and every duration is speed-scaled.
	M *machine.Model

	// peak caches the exact simulated peak memory when the constructing
	// scheduler tracked it inline (peakKnown). The package's event-driven
	// schedulers process releases and allocations in exactly the
	// simulator's order, so their running resident maximum equals
	// PeakMemory's replay — except around zero-duration tasks, whose
	// atomic allocate-peak-release the simulator orders before same-time
	// starts; schedulers therefore only cache on trees without
	// zero-duration tasks (sequential schedules cache always: one task at
	// a time keeps both models identical). A cached schedule is also
	// overlap-free by construction — a processor re-enters the free pool
	// only at a completion, so Evaluate can skip the per-processor check.
	// Callers that mutate Start/Proc/P must clear the cache with
	// Invalidate.
	peak      int64
	peakKnown bool
}

// hetModel is the Schedule.M normalization: uniform machines are the
// implicit default (nil), so uniform schedules stay bit-compatible with
// every historical consumer.
func hetModel(m *machine.Model) *machine.Model {
	if m.IsUniform() {
		return nil
	}
	return m
}

// Invalidate drops the cached peak-memory/validity metadata; call it after
// mutating Start, Proc, P or M by hand.
func (s *Schedule) Invalidate() { s.peakKnown = false; s.peak = 0 }

// setPeak records an inline-tracked exact peak (schedulers only).
func (s *Schedule) setPeak(p int64) { s.peak = p; s.peakKnown = true }

// Dur returns the execution time of node i under the schedule's machine
// model: w_i on a uniform machine, w_i/s_Proc[i] otherwise.
func (s *Schedule) Dur(t *tree.Tree, i int) float64 {
	if s.M == nil {
		return t.W(i)
	}
	return s.M.ExecTime(t.W(i), s.Proc[i])
}

// Makespan returns the completion time of the last task.
func (s *Schedule) Makespan(t *tree.Tree) float64 {
	var m float64
	for i, st := range s.Start {
		if c := st + s.Dur(t, i); c > m {
			m = c
		}
	}
	return m
}

// Finish returns the completion time of node i.
func (s *Schedule) Finish(t *tree.Tree, i int) float64 { return s.Start[i] + s.Dur(t, i) }

// Validate checks that s is a feasible schedule of t: every node scheduled
// exactly once on a valid processor, no task starts before its children
// complete, and no two tasks overlap on the same processor. It runs
// Evaluate's checks with the event replay forced, so it never trusts an
// inline-tracked peak: a schedule edited without Invalidate is still
// checked for overlaps.
func (s *Schedule) Validate(t *tree.Tree) error {
	_, _, err := evaluate(t, s, true)
	return err
}
