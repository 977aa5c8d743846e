package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"treesched/internal/dataset"
	"treesched/internal/machine"
	"treesched/internal/sched"
	"treesched/internal/tree"
)

// runHetero is E18: heterogeneous (related) machines. For every paper
// heuristic it compares, over the collection,
//
//   - the makespan ratio (vs the speed-scaled lower bound) on a uniform
//     3-processor machine against a 2-speed machine "2x1.0+2x0.5" of equal
//     aggregate speed (3): how much the same aggregate capacity costs when
//     split unevenly;
//   - speed-aware against speed-blind assignment on the 2-speed machine:
//     the blind schedule is the heuristic's uniform-4 schedule (identical
//     processors assumed) re-timed on the real machine with its processor
//     assignment and per-processor order kept.
func runHetero(insts []dataset.Instance) {
	het, err := machine.ParseSpec("2x1.0+2x0.5")
	if err != nil {
		fatal(err)
	}
	uni := machine.Uniform(3) // equal aggregate speed Σs = 3

	type acc struct {
		logUni, logHet, logBlindGain float64
		blindWins                    int
		n                            int
	}
	accs := make(map[sched.HeuristicID]*acc)
	ids := sched.PaperHeuristics()
	for _, id := range ids {
		accs[id] = &acc{}
	}

	for _, inst := range insts {
		t := inst.Tree
		pc := sched.NewPrecompute(t)
		lbUni := sched.MakespanLowerBoundOn(t, uni)
		lbHet := sched.MakespanLowerBoundOn(t, het)
		for _, id := range ids {
			sUni, err := pc.Run(id, uni, 0)
			if err != nil {
				fatal(err)
			}
			sHet, err := pc.Run(id, het, 0)
			if err != nil {
				fatal(err)
			}
			// Speed-blind baseline: schedule as if the 4 processors were
			// identical, then live with the real speeds.
			sBlind, err := pc.Run(id, machine.Uniform(het.P()), 0)
			if err != nil {
				fatal(err)
			}
			blindMs := retime(t, sBlind, het)
			awareMs := sHet.Makespan(t)
			a := accs[id]
			a.logUni += math.Log(sUni.Makespan(t) / lbUni)
			a.logHet += math.Log(awareMs / lbHet)
			a.logBlindGain += math.Log(blindMs / awareMs)
			if blindMs < awareMs-1e-9 {
				a.blindWins++
			}
			a.n++
		}
	}

	fmt.Println("== E18: uniform vs 2-speed machines at equal aggregate speed ==")
	fmt.Printf("uniform machine %s vs heterogeneous %s (both Σ speeds = 3); %d trees\n",
		uni.Spec(), het.Spec(), accs[ids[0]].n)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "heuristic\tms/LB uniform(3)\tms/LB 2-speed\tblind/aware ms\tblind wins")
	names := append([]sched.HeuristicID(nil), ids...)
	sort.Slice(names, func(a, b int) bool { return names[a] < names[b] })
	for _, id := range ids {
		a := accs[id]
		n := float64(a.n)
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%d/%d\n", id,
			math.Exp(a.logUni/n), math.Exp(a.logHet/n), math.Exp(a.logBlindGain/n), a.blindWins, a.n)
	}
	w.Flush()
	fmt.Println("blind/aware > 1: speed-aware assignment beats assuming-identical-processors, re-timed on the real machine")
}

// retime replays a schedule built for identical processors on the real
// machine m: the processor assignment and each processor's task order are
// kept, starts are recomputed greedily (a task starts when its processor
// frees and its children have finished), durations are speed-scaled. This
// is the "speed-blind" baseline: what the schedule's decisions cost when
// the speeds it ignored become real.
func retime(t *tree.Tree, s *sched.Schedule, m *machine.Model) float64 {
	n := t.Len()
	// Depth breaks start-time ties child-first (a zero-duration child may
	// share its parent's start), keeping the replay dependency-safe.
	depth := make([]int32, n)
	top := t.TopOrder() // children before parents; walk backwards for depths
	for i := n - 1; i >= 0; i-- {
		v := top[i]
		if p := t.Parent(v); p != tree.None {
			depth[v] = depth[p] + 1
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := order[a], order[b]
		if s.Start[va] != s.Start[vb] {
			return s.Start[va] < s.Start[vb]
		}
		if depth[va] != depth[vb] {
			return depth[va] > depth[vb]
		}
		return va < vb
	})
	procFree := make([]float64, m.P())
	finish := make([]float64, n)
	var ms float64
	for _, v := range order {
		q := s.Proc[v]
		at := procFree[q]
		for _, c := range t.Children(v) {
			if finish[c] > at {
				at = finish[c]
			}
		}
		finish[v] = at + m.ExecTime(t.W(v), q)
		procFree[q] = finish[v]
		if finish[v] > ms {
			ms = finish[v]
		}
	}
	return ms
}
