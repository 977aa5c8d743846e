package sched

import (
	"fmt"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// memCapped schedules pc's tree on m under a hard peak-memory cap. It
// implements the activation-order strategy suggested by the paper's future
// work (§7, "scheduling algorithms that take as input a cap on the memory
// usage"):
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
// memCapped returns an error if the cap is below the sequential requirement
// M_seq of σ (no schedule following σ can respect it).
func memCapped(pc *Precompute, m *machine.Model, cap int64) (*Schedule, error) {
	t := pc.t
	if pc.MSeq() > cap {
		return nil, fmt.Errorf("sched: memory cap %d below sequential requirement %d", cap, pc.MSeq())
	}
	n := t.Len()
	s := &Schedule{Start: make([]float64, n), Proc: make([]int, n), P: m.P(), M: hetModel(m)}
	if n == 0 {
		return s, nil
	}
	order := pc.Order()
	sc := getSchedScratch()
	sc.ensureBase(t)
	remaining, in, fin := sc.remaining, sc.in, &sc.fin
	st := machine.NewState(m)
	hasPulse := false
	for v := 0; v < n; v++ {
		hasPulse = hasPulse || t.W(v) == 0
	}
	var mem, peak int64 // resident memory right now, and its running max
	now := 0.0
	next := 0 // index into σ of the next task to activate

	// startNext activates σ[next] while admissible: children done
	// (remaining drops to zero as completions drain) and footprint within
	// the cap.
	startNext := func() {
		for next < n && st.Idle() > 0 {
			v := order[next]
			if remaining[v] != 0 || mem+t.N(v)+t.F(v) > cap {
				return
			}
			proc := st.Take()
			s.Start[v] = now
			s.Proc[v] = int(proc)
			mem += t.N(v) + t.F(v)
			if mem > peak {
				peak = mem
			}
			fin.push(now+m.ExecTime(t.W(v), int(proc)), int32(v), proc)
			next++
		}
	}
	complete := func(e finishEvent) {
		v := int(e.node)
		st.Put(e.proc)
		mem -= t.N(v) + in[v]
		if pa := t.Parent(v); pa != tree.None {
			in[pa] += t.F(v)
			remaining[pa]--
		}
	}
	startNext()
	for len(*fin) > 0 {
		e := fin.pop()
		now = e.at
		complete(e)
		for fin.endsAt(now) {
			complete(fin.pop())
		}
		startNext()
	}
	st.Recycle()
	putSchedScratch(sc)
	if next != n {
		return nil, fmt.Errorf("sched: internal error: activated %d of %d tasks", next, n)
	}
	if !hasPulse {
		s.setPeak(peak)
	}
	return s, nil
}
