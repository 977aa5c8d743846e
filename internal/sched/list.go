package sched

import (
	"fmt"
	"sync"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// readyPush inserts v into the min-heap h ordered by rank and returns h.
// rank is a total order, so every pop returns a unique minimum and the
// heap's internal layout can never influence the schedule.
func readyPush(h []int32, v int32, rank []uint64) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if rank[h[parent]] <= rank[h[i]] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

// readyPop removes and returns the minimum of h.
func readyPop(h []int32, rank []uint64) (int32, []int32) {
	v := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	readySiftDown(h, 0, rank)
	return v, h
}

// readyRemove removes the element at index i (used by the booking
// scheduler's σ-front fallback).
func readyRemove(h []int32, i int, rank []uint64) []int32 {
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		h = h[:last]
		// Sift whichever direction restores the invariant.
		j := i
		for j > 0 && rank[h[(j-1)/2]] > rank[h[j]] {
			h[(j-1)/2], h[j] = h[j], h[(j-1)/2]
			j = (j - 1) / 2
		}
		if j == i {
			readySiftDown(h, i, rank)
		}
		return h
	}
	return h[:last]
}

func readyInit(h []int32, rank []uint64) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		readySiftDown(h, i, rank)
	}
}

func readySiftDown(h []int32, i int, rank []uint64) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && rank[h[r]] < rank[h[l]] {
			m = r
		}
		if rank[h[i]] <= rank[h[m]] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// finishHeap orders pending completion events by time (ties by node id for
// determinism — a total order, so pops are layout-independent). The three
// parallel slices live in the pooled scratch.
type finishHeap struct {
	at   []float64
	node []int32
	proc []int32
}

func (h *finishHeap) Len() int { return len(h.at) }

func (h *finishHeap) less(i, j int) bool {
	if h.at[i] != h.at[j] {
		return h.at[i] < h.at[j]
	}
	return h.node[i] < h.node[j]
}

func (h *finishHeap) swap(i, j int) {
	h.at[i], h.at[j] = h.at[j], h.at[i]
	h.node[i], h.node[j] = h.node[j], h.node[i]
	h.proc[i], h.proc[j] = h.proc[j], h.proc[i]
}

func (h *finishHeap) push(at float64, node, proc int32) {
	h.at = append(h.at, at)
	h.node = append(h.node, node)
	h.proc = append(h.proc, proc)
	i := h.Len() - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *finishHeap) pop() (at float64, node, proc int32) {
	at, node, proc = h.at[0], h.node[0], h.proc[0]
	last := h.Len() - 1
	h.swap(0, last)
	h.at, h.node, h.proc = h.at[:last], h.node[:last], h.proc[:last]
	n := last
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h.swap(i, m)
		i = m
	}
	return at, node, proc
}

func (h *finishHeap) reset() {
	h.at = h.at[:0]
	h.node = h.node[:0]
	h.proc = h.proc[:0]
}

// schedScratch is the reusable working set of the event-driven schedulers
// (listScheduleRank, MemCapped, MemCappedBooking), recycled across requests
// via schedPool; the processor free-set lives in the machine.State pool.
// Only the returned Schedule is allocated per call.
type schedScratch struct {
	remaining []int32
	ready     []int32
	fin       finishHeap
	started   []bool // booking / memcap flags
	extra     []bool // booking out-of-order flags
	skipped   []int32
}

var schedPool = sync.Pool{New: func() any { return new(schedScratch) }}

func getSchedScratch() *schedScratch   { return schedPool.Get().(*schedScratch) }
func putSchedScratch(sc *schedScratch) { schedPool.Put(sc) }

// ensureBase sizes the buffers every scheduler needs.
func (sc *schedScratch) ensureBase(n int) {
	if cap(sc.remaining) < n {
		sc.remaining = make([]int32, n)
	}
	sc.remaining = sc.remaining[:n]
	sc.ready = sc.ready[:0]
	sc.fin.reset()
}

// ensureFlags additionally sizes the boolean per-node flags (capped
// schedulers).
func (sc *schedScratch) ensureFlags(n int) {
	if cap(sc.started) < n {
		sc.started = make([]bool, n)
		sc.extra = make([]bool, n)
	}
	sc.started = sc.started[:n]
	sc.extra = sc.extra[:n]
	clear(sc.started)
	clear(sc.extra)
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
// node of lowest rank (the heuristics' rank arrays live in Precompute).
func listScheduleRank(t *tree.Tree, m *machine.Model, rank []uint64) (*Schedule, error) {
	n := t.Len()
	s := &Schedule{Start: make([]float64, n), Proc: make([]int, n), P: m.P(), M: hetModel(m)}
	if n == 0 {
		return s, nil
	}
	sc := getSchedScratch()
	sc.ensureBase(n)
	remaining, ready := sc.remaining, sc.ready
	st := machine.NewState(m)
	hasPulse := false
	for v := 0; v < n; v++ {
		remaining[v] = int32(t.NumChildren(v))
		if remaining[v] == 0 {
			ready = append(ready, int32(v))
		}
		hasPulse = hasPulse || t.W(v) == 0
	}
	readyInit(ready, rank)
	fin := &sc.fin
	now := 0.0
	scheduled := 0
	// The event loop releases all memory freed at an instant before it
	// allocates — the simulator's exact order on pulse-free trees — so the
	// running resident maximum is the schedule's exact peak memory.
	var mem, peak int64

	assign := func() {
		for st.Idle() > 0 && len(ready) > 0 {
			proc := st.Take()
			var v int32
			v, ready = readyPop(ready, rank)
			s.Start[v] = now
			s.Proc[v] = int(proc)
			mem += t.N(int(v)) + t.F(int(v))
			fin.push(now+m.ExecTime(t.W(int(v)), int(proc)), v, proc)
			scheduled++
		}
		if mem > peak {
			peak = mem
		}
	}
	complete := func(v int32) {
		mem -= t.N(int(v)) + t.InSize(int(v))
		if pa := t.Parent(int(v)); pa != tree.None {
			remaining[pa]--
			if remaining[pa] == 0 {
				ready = readyPush(ready, int32(pa), rank)
			}
		}
	}
	assign()
	for fin.Len() > 0 {
		at, v, proc := fin.pop()
		now = at
		st.Put(proc)
		complete(v)
		// Drain all events at the same instant before assigning, so that a
		// parent freed by several children sees all of them complete.
		for fin.Len() > 0 && fin.at[0] == now {
			_, v2, proc2 := fin.pop()
			st.Put(proc2)
			complete(v2)
		}
		assign()
	}
	sc.ready = ready
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
