package sched

import (
	"fmt"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// memCapped schedules pc's tree on m under a hard peak-memory cap. It
// implements the activation-order strategy suggested by the paper's future
// work (§7, "scheduling algorithms that take as input a cap on the memory
// usage") as an admission rule of the engine:
//
// Tasks are started in the order of a memory-feasible sequential traversal
// σ (the memory-optimal postorder). The next task of σ starts as soon as
// (a) its children have completed and (b) starting it keeps resident memory
// within the cap. Up to p tasks run concurrently. Because memory along σ
// never exceeds the cap when tasks are executed one at a time, the scheduler
// can always fall back to sequential progress: it never deadlocks. The cap
// logic is speed-independent; processors are picked fastest-first and tasks
// run in w/s_proc time.
//
// It returns an error if cap is below M_seq, the sequential requirement of σ.
func memCapped(pc *Precompute, m *machine.Model, cap int64) (*Schedule, error) {
	if pc.MSeq() > cap {
		return nil, fmt.Errorf("sched: memory cap %d below sequential requirement %d", cap, pc.MSeq())
	}
	e := enginePool.Get().(*engine)
	e.t, e.m, e.rule, e.cap, e.order = pc.t, m, admitSigma, cap, pc.Order()
	return e.run()
}

// pickSigma is MemCapped's rule: σ[next] is next once its children are
// done and its footprint fits under the cap with mem resident.
func (e *engine) pickSigma(mem int64) int {
	if e.next < len(e.order) {
		if v := e.order[e.next]; e.nodes[v].remaining == 0 && mem+e.t.N(v)+e.t.F(v) <= e.cap {
			e.next++
			return v
		}
	}
	return -1
}

// memCappedBooking schedules pc's tree on m under a hard peak-memory cap,
// like memCapped, but with far more parallelism: instead of activating
// tasks strictly in the order of the reference traversal σ (the
// memory-optimal postorder), its admission rule admits *any* ready task in
// deepest-first priority, provided the task's footprint fits in the memory
// budget that is not booked for σ's future needs.
//
// Booking invariant: let futurePeak[k] be the largest memory the purely
// sequential execution of σ[k..] ever needs. Every out-of-order task v
// charges n_v+f_v against the budget cap - futurePeak[next] (n_v is
// released when v completes, f_v when its parent does). Since futurePeak is
// non-increasing in next and any resident file is either part of the
// σ-prefix state or charged to the budget, σ[next] can always start once
// the machine drains — the scheduler never deadlocks and never exceeds cap.
// The invariant is purely about memory, so speeds leave it untouched; the
// machine decides processor picks (fastest-first) and execution times.
//
// It returns an error if cap is below the sequential requirement of σ.
func memCappedBooking(pc *Precompute, m *machine.Model, cap int64) (*Schedule, error) {
	if pc.t.Len() > 0 && pc.FuturePeak()[0] > cap {
		return nil, fmt.Errorf("sched: memory cap %d below sequential requirement %d", cap, pc.FuturePeak()[0])
	}
	e := enginePool.Get().(*engine)
	e.t, e.m, e.rule, e.rk = pc.t, m, admitBooking, pc.rankBooking()
	e.cap, e.order, e.pos, e.futurePeak = cap, pc.Order(), pc.Pos(), pc.FuturePeak()
	return e.run()
}

// admissionWindow bounds each instant's walk of the ready set; σ[next] is
// always retried, so the window trades scheduling quality, never progress.
const admissionWindow = 256

// pickBooking is the booking rule: it continues the instant's walk of the
// ready set in booking rank and admits the first task that fits; the
// window counts every task visited, admitted or skipped. σ[next] is
// admissible whenever the machine is idle, so once the walk ends it is
// tried once more, even if the window missed it.
func (e *engine) pickBooking(mem int64) int {
	for e.walkRank >= 0 && e.walked < admissionWindow {
		r := e.walkRank
		e.walkRank = e.ready.next(r + 1)
		e.walked++
		if v := int(e.rk.byRank[r]); e.admissible(v, mem) {
			return e.book(r, v)
		}
	}
	if !e.fellBack && e.next < len(e.order) {
		e.fellBack = true
		if v := e.order[e.next]; e.ready.has(e.rk.rank[v]) && e.admissible(v, mem) {
			return e.book(e.rk.rank[v], v)
		}
	}
	return -1
}

// admissible reports whether v fits under the cap and, unless it is
// σ[next], in the budget not booked for σ's future.
func (e *engine) admissible(v int, mem int64) bool {
	foot := e.t.N(v) + e.t.F(v)
	return mem+foot <= e.cap && (e.pos[v] == e.next || e.extraUsed+foot <= e.cap-e.futurePeak[e.next])
}

// book admits v, of rank r, to start now: it leaves the ready set, is
// charged to the budget when it runs ahead of σ[next], and next moves past
// the started prefix of σ.
func (e *engine) book(r int32, v int) int {
	e.ready.remove(r)
	e.started[v] = true
	if e.pos[v] > e.next {
		e.outOfOrder[v] = true
		e.extraUsed += e.t.N(v) + e.t.F(v)
	}
	for e.next < len(e.order) && e.started[e.order[e.next]] {
		e.next++
	}
	return v
}

// settle returns completed task v's charges: the outputs of its
// out-of-order children, and its own n_v when it ran out of order (its f_v
// stays charged, now to its parent, until the parent completes).
func (e *engine) settle(v int) {
	e.extraUsed -= e.booked[v]
	if e.outOfOrder[v] {
		e.extraUsed -= e.t.N(v)
		if pa := e.t.Parent(v); pa != tree.None {
			e.booked[pa] += e.t.F(v)
		}
	}
}
