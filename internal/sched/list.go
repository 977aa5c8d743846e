package sched

import (
	"fmt"
	"sync"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// finishHeap orders the running tasks' completion events by time, ties by
// node id — a total order, so pops are layout-independent. It lives in the
// pooled scratch.
type finishHeap []finishEvent

// finishEvent is one running task: when it ends, and where it runs.
type finishEvent struct {
	at   float64
	node int32
	proc int32
}

func (a finishEvent) before(b finishEvent) bool {
	return a.at < b.at || (a.at == b.at && a.node < b.node)
}

func (h *finishHeap) push(at float64, node, proc int32) {
	x := finishEvent{at: at, node: node, proc: proc}
	*h = append(*h, x)
	e := *h
	i := len(e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(e[parent]) {
			break
		}
		e[i] = e[parent]
		i = parent
	}
	e[i] = x
}

// pop removes and returns the earliest event.
func (h *finishHeap) pop() finishEvent {
	e := *h
	top := e[0]
	last := len(e) - 1
	x := e[last]
	e = e[:last]
	*h = e
	if last == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && e[r].before(e[c]) {
			c = r
		}
		if !e[c].before(x) {
			break
		}
		e[i] = e[c]
		i = c
	}
	e[i] = x
	return top
}

// endsAt reports whether the earliest pending event ends at time now.
func (h finishHeap) endsAt(now float64) bool { return len(h) > 0 && h[0].at == now }

// schedScratch is the reusable working set of the event-driven schedulers
// (listScheduleRank, MemCapped, MemCappedBooking), recycled across requests
// via schedPool; the processor free-set lives in the machine.State pool.
// Only the returned Schedule is allocated per call.
type schedScratch struct {
	remaining []int32 // children not yet finished
	// in sums the output files of the finished children: once a task's
	// children have all finished, it is the task's input size, which its
	// own end releases.
	in    []int64
	ready rankSet
	fin   finishHeap
	// The booking scheduler's flags, and the part of in that out-of-order
	// children still charge to its budget.
	started, outOfOrder []bool
	booked              []int64
}

var schedPool = sync.Pool{New: func() any { return new(schedScratch) }}

func getSchedScratch() *schedScratch   { return schedPool.Get().(*schedScratch) }
func putSchedScratch(sc *schedScratch) { schedPool.Put(sc) }

// ensureBase sizes and clears the buffers every scheduler needs, and fills
// remaining from t.
func (sc *schedScratch) ensureBase(t *tree.Tree) {
	n := t.Len()
	sc.remaining = resize(sc.remaining, n)
	for v := range sc.remaining {
		sc.remaining[v] = int32(t.NumChildren(v))
	}
	sc.in = resize(sc.in, n)
	clear(sc.in)
	sc.fin = sc.fin[:0]
}

// ensureFlags additionally sizes and clears the booking scheduler's
// per-node state.
func (sc *schedScratch) ensureFlags(n int) {
	sc.started = resize(sc.started, n)
	sc.outOfOrder = resize(sc.outOfOrder, n)
	sc.booked = resize(sc.booked, n)
	clear(sc.started)
	clear(sc.outOfOrder)
	clear(sc.booked)
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

// listScheduleRank runs the event-based list scheduling of paper
// Algorithm 3: whenever a processor is available, it receives the ready
// node of lowest rank (the heuristics' rank permutations live in
// Precompute).
func listScheduleRank(t *tree.Tree, m *machine.Model, rk rankPerm) (*Schedule, error) {
	n := t.Len()
	s := &Schedule{Start: make([]float64, n), Proc: make([]int, n), P: m.P(), M: hetModel(m)}
	if n == 0 {
		return s, nil
	}
	sc := getSchedScratch()
	sc.ensureBase(t)
	remaining, in, ready, fin := sc.remaining, sc.in, &sc.ready, &sc.fin
	ready.reset(n)
	st := machine.NewState(m)
	hasPulse := false
	for v := 0; v < n; v++ {
		if remaining[v] == 0 {
			ready.add(rk.rank[v])
		}
		hasPulse = hasPulse || t.W(v) == 0
	}
	now := 0.0
	scheduled := 0
	// The event loop releases all memory freed at an instant before it
	// allocates — the simulator's exact order on pulse-free trees — so the
	// running resident maximum is the schedule's exact peak memory.
	var mem, peak int64

	assign := func() {
		for st.Idle() > 0 && ready.count > 0 {
			proc := st.Take()
			v := int(rk.byRank[ready.popMin()])
			s.Start[v] = now
			s.Proc[v] = int(proc)
			mem += t.N(v) + t.F(v)
			fin.push(now+m.ExecTime(t.W(v), int(proc)), int32(v), proc)
			scheduled++
		}
		if mem > peak {
			peak = mem
		}
	}
	complete := func(e finishEvent) {
		v := int(e.node)
		st.Put(e.proc)
		mem -= t.N(v) + in[v]
		if pa := t.Parent(v); pa != tree.None {
			in[pa] += t.F(v)
			if remaining[pa]--; remaining[pa] == 0 {
				ready.add(rk.rank[pa])
			}
		}
	}
	assign()
	for len(*fin) > 0 {
		e := fin.pop()
		now = e.at
		complete(e)
		// Drain all events at the same instant before assigning, so that a
		// parent freed by several children sees all of them complete.
		for fin.endsAt(now) {
			complete(fin.pop())
		}
		assign()
	}
	st.Recycle()
	putSchedScratch(sc)
	if scheduled != n {
		return nil, fmt.Errorf("sched: internal error: scheduled %d of %d nodes", scheduled, n)
	}
	if !hasPulse {
		s.setPeak(peak)
	}
	return s, nil
}
