package sched

import (
	"fmt"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// memCappedBooking schedules pc's tree on m under a hard peak-memory cap,
// like memCapped, but with far more parallelism: instead of activating
// tasks strictly in the order of the reference traversal σ (the
// memory-optimal postorder), it admits *any* ready task in deepest-first
// priority, provided the task's footprint fits in the memory budget that is
// not booked for σ's future needs.
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
	t := pc.t
	n := t.Len()
	s := &Schedule{Start: make([]float64, n), Proc: make([]int, n), P: m.P(), M: hetModel(m)}
	if n == 0 {
		return s, nil
	}
	order, pos, futurePeak := pc.Order(), pc.Pos(), pc.FuturePeak()
	if futurePeak[0] > cap {
		return nil, fmt.Errorf("sched: memory cap %d below sequential requirement %d", cap, futurePeak[0])
	}
	rk := pc.rankBooking()

	sc := getSchedScratch()
	sc.ensureBase(t)
	sc.ensureFlags(n)
	remaining, in, ready, fin := sc.remaining, sc.in, &sc.ready, &sc.fin
	started, outOfOrder, booked := sc.started, sc.outOfOrder, sc.booked
	ready.reset(n)
	st := machine.NewState(m)
	hasPulse := false
	for v := 0; v < n; v++ {
		if remaining[v] == 0 {
			ready.add(rk.rank[v])
		}
		hasPulse = hasPulse || t.W(v) == 0
	}

	var (
		mem       int64 // resident memory right now
		peak      int64 // running max of mem
		extraUsed int64 // budget charged by out-of-order tasks
		next      int   // first index of σ not yet started
		now       float64
	)

	// admissionWindow bounds the per-event scan of the ready set; σ[next]
	// is always retried, so the window only trades scheduling quality for
	// speed, never progress.
	const admissionWindow = 256

	start := func(v int, proc int32) {
		s.Start[v] = now
		s.Proc[v] = int(proc)
		started[v] = true
		mem += t.N(v) + t.F(v)
		if mem > peak {
			peak = mem
		}
		fin.push(now+m.ExecTime(t.W(v), int(proc)), int32(v), proc)
		if pos[v] > next {
			outOfOrder[v] = true
			extraUsed += t.N(v) + t.F(v)
		}
		for next < n && started[order[next]] {
			next++
		}
	}
	admissible := func(v int) bool {
		foot := t.N(v) + t.F(v)
		if mem+foot > cap {
			return false
		}
		if pos[v] == next {
			return true
		}
		return extraUsed+foot <= cap-futurePeak[next]
	}
	assign := func() {
		// Walk the ready set in priority order, admitting greedily. The
		// window counts every task visited, admitted or skipped.
		scanned := 0
		for r := ready.next(0); r >= 0 && st.Idle() > 0 && scanned < admissionWindow; r = ready.next(r + 1) {
			scanned++
			if v := int(rk.byRank[r]); admissible(v) {
				ready.remove(r)
				start(v, st.Take())
			}
		}
		// Fallback: σ[next] is admissible whenever the machine is idle;
		// retry it even if the window missed it.
		if st.Idle() > 0 && next < n {
			v := order[next]
			if r := rk.rank[v]; ready.has(r) && admissible(v) {
				ready.remove(r)
				start(v, st.Take())
			}
		}
	}

	complete := func(e finishEvent) {
		v := int(e.node)
		st.Put(e.proc)
		mem -= t.N(v) + in[v]
		// The outputs of v's out-of-order children stayed charged until now.
		extraUsed -= booked[v]
		if outOfOrder[v] {
			extraUsed -= t.N(v) // f_v stays charged until the parent completes
		}
		if pa := t.Parent(v); pa != tree.None {
			in[pa] += t.F(v)
			if outOfOrder[v] {
				booked[pa] += t.F(v)
			}
			if remaining[pa]--; remaining[pa] == 0 {
				ready.add(rk.rank[pa])
			}
		}
	}

	assign()
	done := 0
	for len(*fin) > 0 {
		e := fin.pop()
		now = e.at
		complete(e)
		done++
		for fin.endsAt(now) {
			complete(fin.pop())
			done++
		}
		assign()
	}
	st.Recycle()
	putSchedScratch(sc)
	if done != n {
		return nil, fmt.Errorf("sched: booking scheduler finished %d of %d tasks", done, n)
	}
	if !hasPulse {
		s.setPeak(peak)
	}
	return s, nil
}
