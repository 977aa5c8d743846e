package sched

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"treesched/internal/tree"
)

// timeEps absorbs floating-point rounding in schedule validation.
const timeEps = 1e-9

// event kinds, in tie-break order at equal timestamps: completions release
// memory before new tasks allocate (this matches the per-step accounting of
// the paper's NP-completeness proof, §4.1).
const (
	evEnd   = 0 // task completion: release n_i and the children's files
	evPulse = 1 // zero-duration task: allocate, peak, release in one step
	evStart = 2 // task start: allocate n_i + f_i
)

// simEvent packs an event's sort key into one uint64: the IEEE bits of
// its timestamp shifted left one, ORed with a class bit (0 = release,
// 1 = allocation). Non-negative doubles leave the sign bit clear and
// compare exactly like their bit patterns, so events order by (time,
// releases-before-allocations) under plain integer comparison — no
// field-by-field comparator. Among allocations sharing a timestamp,
// zero-duration pulses order before real starts via a tie branch that
// only runs on equal keys. The timestamp itself is always re-derived from
// the schedule (eventAt), so the key is purely a sort key.
//
// The packing requires non-negative timestamps; fillEvents reports
// violations (a start in the tolerated [-timeEps, 0) band) and the
// callers fall back to a field-wise comparison.
type simEvent struct {
	key  uint64
	node int32
}

// kind derives the event kind: releases carry class bit 0; allocations
// are pulses when the task has zero duration.
func (e simEvent) kind(t *tree.Tree) int {
	if e.key&1 == 0 {
		return evEnd
	}
	if t.W(int(e.node)) == 0 {
		return evPulse
	}
	return evStart
}

// eventAt recomputes the event's exact timestamp from the schedule.
func eventAt(t *tree.Tree, s *Schedule, e simEvent) float64 {
	at := s.Start[e.node]
	if e.key&1 == 0 {
		at += s.Dur(t, int(e.node))
	}
	return at
}

// simScratch is the pooled working set of the schedule evaluator;
// steady-state PeakMemory/Evaluate calls perform no allocation.
type simScratch struct {
	ev      []simEvent
	procEnd []float64 // per-processor latest task end (Evaluate)
	procTop []int32   // task holding that end, for error messages
	topRank []int32   // node -> topological rank, built only for pulse ties
}

var simPool = sync.Pool{New: func() any { return new(simScratch) }}

// fillEvents builds the schedule's event array, pre-bucketed per node in
// one pass (zero-duration tasks collapse to a single pulse event), and
// reports whether every key packed exactly and whether any pulses exist.
func fillEvents(t *tree.Tree, s *Schedule, ev []simEvent) (out []simEvent, packable, hasPulse bool) {
	ev = ev[:0]
	n := t.Len()
	packable = true
	pack := func(at float64, class uint64, node int) {
		if at < 0 {
			packable = false
		}
		ev = append(ev, simEvent{key: math.Float64bits(at)<<1 | class, node: int32(node)})
	}
	// Pulse classification follows t.W (matching simEvent.kind): a task is
	// a pulse iff its work is zero, which under any positive finite speed
	// coincides with zero duration.
	for i := 0; i < n; i++ {
		pack(s.Start[i], 1, i) // pulse or start: allocation class
		if t.W(i) != 0 {
			pack(s.Start[i]+s.Dur(t, i), 0, i) // completion: release class
		} else {
			hasPulse = true
		}
	}
	return ev, packable, hasPulse
}

// sortEvents orders the schedule's events. sc.topRank is filled (lazily,
// pooled) when pulses exist: coincident zero-duration tasks replay in
// topological order — a child's pulse before its parent's — so a parent
// never releases an output file its child has not yet produced at that
// instant. (The peak of independent coincident pulses inherently depends
// on the chosen linearization; topological order is the causal one and
// keeps the replay deterministic.)
func (sc *simScratch) sortEvents(t *tree.Tree, s *Schedule, packable, hasPulse bool) {
	topRank := sc.topRank[:0]
	if hasPulse {
		n := t.Len()
		if cap(topRank) < n {
			topRank = make([]int32, n)
		}
		topRank = topRank[:n]
		for i, v := range t.TopOrder() {
			topRank[v] = int32(i)
		}
		sc.topRank = topRank
	}
	tie := func(a, b simEvent) int {
		if ka, kb := a.kind(t), b.kind(t); ka != kb {
			return ka - kb // releases < pulses < starts
		}
		if a.key&1 == 1 && t.W(int(a.node)) == 0 { // both pulses: causal order
			return int(topRank[a.node]) - int(topRank[b.node])
		}
		return int(a.node) - int(b.node)
	}
	if packable {
		slices.SortFunc(sc.ev, func(a, b simEvent) int {
			if a.key != b.key {
				if a.key < b.key {
					return -1
				}
				return 1
			}
			return tie(a, b) // rare — equal keys only
		})
		return
	}
	// Slow path for timestamps that escaped the bit packing (a start in
	// the tolerated [-timeEps, 0) band).
	slices.SortFunc(sc.ev, func(a, b simEvent) int {
		if aa, ba := eventAt(t, s, a), eventAt(t, s, b); aa != ba {
			if aa < ba {
				return -1
			}
			return 1
		}
		return tie(a, b)
	})
}

// PeakMemory returns the peak memory of executing schedule s on tree t: at
// any instant, resident memory is the sum of the output files produced but
// not yet consumed plus, for every running task, its execution and output
// files. Memory released at time τ is available to tasks starting at τ.
// The event buffer is pooled: steady-state calls allocate nothing.
func PeakMemory(t *tree.Tree, s *Schedule) int64 {
	if s.peakKnown {
		return s.peak
	}
	sc := simPool.Get().(*simScratch)
	var packable, hasPulse bool
	sc.ev, packable, hasPulse = fillEvents(t, s, sc.ev)
	sc.sortEvents(t, s, packable, hasPulse)
	var m, peak int64
	for _, e := range sc.ev {
		v := int(e.node)
		switch e.kind(t) {
		case evEnd:
			m -= t.N(v) + t.InSize(v)
		case evStart:
			m += t.N(v) + t.F(v)
		case evPulse:
			m += t.N(v) + t.F(v)
			if m > peak {
				peak = m
			}
			m -= t.N(v) + t.InSize(v)
		}
		if m > peak {
			peak = m
		}
	}
	simPool.Put(sc)
	return peak
}

// Evaluate validates s against t and measures it, all in one event pass:
// it returns the makespan and the exact simulated peak memory, or the
// first feasibility violation found (the checks of Schedule.Validate).
// This is the hot path of the portfolio racer and the service workers —
// one pooled event sort replaces a separate validation, Makespan scan and
// PeakMemory simulation. A schedule whose scheduler tracked its peak
// inline skips the event replay.
func Evaluate(t *tree.Tree, s *Schedule) (makespan float64, peak int64, err error) {
	return evaluate(t, s, !s.peakKnown)
}

// evaluate is Evaluate with the event replay, and with it the overlap
// check, forced (replay) or skipped in favor of the inline-tracked peak.
func evaluate(t *tree.Tree, s *Schedule, replay bool) (makespan float64, peak int64, err error) {
	n := t.Len()
	if len(s.Start) != n || len(s.Proc) != n {
		return 0, 0, fmt.Errorf("sched: schedule covers %d/%d starts, %d/%d procs", len(s.Start), n, len(s.Proc), n)
	}
	if s.P < 1 {
		return 0, 0, fmt.Errorf("sched: invalid processor count %d", s.P)
	}
	if s.M != nil && s.M.P() != s.P {
		return 0, 0, fmt.Errorf("sched: machine model has %d processors, schedule says %d", s.M.P(), s.P)
	}
	for i := 0; i < n; i++ {
		if s.Proc[i] < 0 || s.Proc[i] >= s.P {
			return 0, 0, fmt.Errorf("sched: node %d on invalid processor %d", i, s.Proc[i])
		}
		if s.Start[i] < -timeEps || math.IsNaN(s.Start[i]) || math.IsInf(s.Start[i], 0) {
			return 0, 0, fmt.Errorf("sched: node %d has invalid start time %v", i, s.Start[i])
		}
		if p := t.Parent(i); p != tree.None {
			if s.Start[p]+timeEps < s.Start[i]+s.Dur(t, i) {
				return 0, 0, fmt.Errorf("sched: node %d starts at %v before child %d completes at %v",
					p, s.Start[p], i, s.Start[i]+s.Dur(t, i))
			}
		}
		if c := s.Start[i] + s.Dur(t, i); c > makespan {
			makespan = c
		}
	}
	if n == 0 {
		return 0, 0, nil
	}
	if !replay {
		// Inline-tracked schedules skip the event replay: the peak is the
		// scheduler's exact running maximum, and overlap is impossible by
		// construction (a processor re-enters the free pool only at a
		// completion). The O(n) precedence/validity checks above still ran.
		return makespan, s.peak, nil
	}

	sc := simPool.Get().(*simScratch)
	var packable, hasPulse bool
	sc.ev, packable, hasPulse = fillEvents(t, s, sc.ev)
	sc.sortEvents(t, s, packable, hasPulse)
	if cap(sc.procEnd) < s.P {
		sc.procEnd = make([]float64, s.P)
		sc.procTop = make([]int32, s.P)
	}
	procEnd := sc.procEnd[:s.P]
	procTop := sc.procTop[:s.P]
	for q := range procEnd {
		procEnd[q] = math.Inf(-1)
	}
	var m int64
	// Per-processor overlap: events arrive in time order with releases
	// before allocations, so a task may start exactly when (within
	// timeEps) the processor's latest occupant ends, and zero-duration
	// tasks (pulses sort before starts) never block a start at the same
	// instant. procEnd tracks the furthest end seen on each processor, so
	// overlaps with any earlier task are caught, not just the previous
	// one.
	for _, e := range sc.ev {
		v := int(e.node)
		switch e.kind(t) {
		case evEnd:
			m -= t.N(v) + t.InSize(v)
			continue // releases can't raise the peak or overlap
		case evStart, evPulse:
			at := s.Start[v]
			q := s.Proc[v]
			if at+timeEps < procEnd[q] {
				err = fmt.Errorf("sched: tasks %d and %d overlap on processor %d", procTop[q], v, q)
			}
			if end := at + s.Dur(t, v); end > procEnd[q] {
				procEnd[q] = end
				procTop[q] = e.node
			}
			m += t.N(v) + t.F(v)
			if m > peak {
				peak = m
			}
			if e.kind(t) == evPulse {
				m -= t.N(v) + t.InSize(v)
			}
		}
		if err != nil {
			break
		}
	}
	simPool.Put(sc)
	if err != nil {
		return 0, 0, err
	}
	return makespan, peak, nil
}

// MemoryTrace returns the (time, resident-memory) steps of the schedule,
// one entry per event, for plotting and debugging. Entries share timestamps
// when several events coincide.
func MemoryTrace(t *tree.Tree, s *Schedule) (times []float64, mem []int64) {
	sc := simPool.Get().(*simScratch)
	var packable, hasPulse bool
	sc.ev, packable, hasPulse = fillEvents(t, s, sc.ev)
	sc.sortEvents(t, s, packable, hasPulse)
	var m int64
	for _, e := range sc.ev {
		v := int(e.node)
		at := eventAt(t, s, e)
		switch e.kind(t) {
		case evEnd:
			m -= t.N(v) + t.InSize(v)
		case evStart:
			m += t.N(v) + t.F(v)
		case evPulse:
			m += t.N(v) + t.F(v)
			times = append(times, at)
			mem = append(mem, m)
			m -= t.N(v) + t.InSize(v)
		}
		times = append(times, at)
		mem = append(mem, m)
	}
	simPool.Put(sc)
	return times, mem
}
