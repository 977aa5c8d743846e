package portfolio

import (
	"context"
	"math"
	"testing"

	"treesched/internal/machine"
	"treesched/internal/sched"
)

// exactTestOptions keeps race-tested exact runs cheap and deterministic.
const exactTestNodes = 50_000

// TestRunWithExactCandidate races the paper's heuristics against the
// exact solver: the Exact candidate must carry its Proven/Explored stats,
// and under MinMakespan it must win any race it proves (nothing beats a
// proven optimum).
func TestRunWithExactCandidate(t *testing.T) {
	tr := portfolioTestTree(t, 5, 20)
	opts := Options{
		Options: sched.Options{
			Processors: 2,
			Heuristics: append(DefaultCandidates(), sched.IDExact),
		},
		ExactNodes: exactTestNodes,
	}
	res, err := Run(context.Background(), tr, MinMakespan(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != len(opts.Heuristics) {
		t.Fatalf("%d candidates, want %d", len(res.Candidates), len(opts.Heuristics))
	}
	var ex *Candidate
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.ID == sched.IDExact {
			ex = c
		} else if c.Proven || c.Explored != 0 {
			t.Errorf("%s carries exact-only stats: proven=%v explored=%d", c.ID, c.Proven, c.Explored)
		}
	}
	if ex == nil {
		t.Fatal("no Exact candidate in the results")
	}
	if ex.Err != nil {
		t.Fatalf("Exact candidate failed: %v", ex.Err)
	}
	if ex.Makespan < res.MakespanLB-1e-9 {
		t.Errorf("Exact makespan %g beats the lower bound %g", ex.Makespan, res.MakespanLB)
	}
	for _, c := range res.Candidates {
		if c.Err == nil && c.Makespan < ex.Makespan {
			if ex.Proven {
				t.Errorf("%s makespan %g beats the proven optimum %g", c.ID, c.Makespan, ex.Makespan)
			}
		}
	}
	if ex.Proven {
		w, ok := res.WinnerCandidate()
		if !ok {
			t.Fatal("no winner")
		}
		if w.Makespan != ex.Makespan {
			t.Errorf("MinMakespan winner at %g, but the proven optimum is %g", w.Makespan, ex.Makespan)
		}
	}
}

// TestRunOnlyExact exercises the path where the request names no plain
// heuristic at all — the race is a single exact solve.
func TestRunOnlyExact(t *testing.T) {
	tr := portfolioTestTree(t, 11, 16)
	opts := Options{
		Options:    sched.Options{Processors: 2, Heuristics: []sched.HeuristicID{sched.IDExact}},
		ExactNodes: exactTestNodes,
	}
	res, err := Run(context.Background(), tr, MinMakespan(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 1 || res.Candidates[0].ID != sched.IDExact {
		t.Fatalf("candidates = %+v, want exactly one Exact entry", res.Candidates)
	}
	c := res.Candidates[0]
	if c.Err != nil {
		t.Fatalf("Exact failed: %v", c.Err)
	}
	if res.Winner != 0 {
		t.Errorf("winner = %d, want 0", res.Winner)
	}
	if res.MemorySeq <= 0 {
		t.Errorf("MemorySeq = %d, want the shared M_seq baseline", res.MemorySeq)
	}
}

// TestRunExactDeterministic repeats the same exact-bearing race and
// demands byte-identical outcomes: same winner, same measures, same node
// count — the budget is counted in search nodes, never wall-clock.
func TestRunExactDeterministic(t *testing.T) {
	tr := portfolioTestTree(t, 7, 24)
	m, err := machine.ParseSpec("2x1.0+2x0.5")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Options: sched.Options{
			Machine:    m,
			Heuristics: append(DefaultCandidates(), sched.IDExact),
		},
		ExactNodes: exactTestNodes,
	}
	ref, err := Run(context.Background(), tr, MinMakespan(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 0} {
		opts.Parallelism = par
		res, err := Run(context.Background(), tr, MinMakespan(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Winner != ref.Winner {
			t.Fatalf("parallelism %d: winner %d, want %d", par, res.Winner, ref.Winner)
		}
		for i := range res.Candidates {
			a, b := res.Candidates[i], ref.Candidates[i]
			if a.ID != b.ID || a.Makespan != b.Makespan || a.PeakMemory != b.PeakMemory ||
				a.Proven != b.Proven || a.Explored != b.Explored {
				t.Fatalf("parallelism %d: candidate %d differs: %+v vs %+v", par, i, a, b)
			}
		}
	}
}

// TestRunExactHonorsMemCapFactor: with a cap factor set, the Exact
// candidate must respect cap = ceil(factor × M_seq) like the capped
// schedulers do.
func TestRunExactHonorsMemCapFactor(t *testing.T) {
	tr := portfolioTestTree(t, 3, 18)
	opts := Options{
		Options: sched.Options{
			Processors: 2,
			Heuristics: []sched.HeuristicID{sched.IDMemCapped, sched.IDExact},
			// Factor 1 pins the cap to M_seq itself: the tightest factor
			// the capped heuristics accept.
			MemCapFactor: 1,
		},
		ExactNodes: exactTestNodes,
	}
	res, err := Run(context.Background(), tr, MinMakespan(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cap := sched.CapFromFactor(1, res.MemorySeq)
	for _, c := range res.Candidates {
		if c.Err != nil {
			t.Fatalf("%s failed: %v", c.ID, c.Err)
		}
		if c.PeakMemory > cap {
			t.Errorf("%s peak %d exceeds cap %d", c.ID, c.PeakMemory, cap)
		}
	}
	if cap == math.MaxInt64 {
		t.Fatal("cap factor 1 resolved to no cap")
	}
}
