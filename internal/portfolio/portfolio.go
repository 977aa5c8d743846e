// Package portfolio races a set of scheduling heuristics concurrently
// over one tree and answers the paper's bi-criteria question in one call:
// it collects every (makespan, peak memory) outcome, computes the Pareto
// frontier of the race, and selects a winner under a typed Objective.
//
// The paper's whole point is that no single heuristic wins both
// objectives — ParSubtrees dominates on memory, ParDeepestFirst on
// makespan (Table 1) — so a production service should not make the caller
// pick one blindly. A portfolio run replaces N sequential per-heuristic
// requests with one racing call: the memory-optimal postorder (M_seq) is
// computed once and shared, the candidates run on a bounded goroutine
// fan-out with per-heuristic panic containment, and the wall time
// approaches the slowest single candidate instead of the sum.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"treesched/internal/exact"
	"treesched/internal/machine"
	"treesched/internal/obs"
	"treesched/internal/sched"
	"treesched/internal/tree"
)

// Options parameterizes a portfolio run. The embedded sched.Options
// carries the machine size, the candidate set and the memory-cap factor;
// an empty candidate set means DefaultCandidates.
type Options struct {
	sched.Options
	// Parallelism bounds how many candidates run concurrently. 0 means
	// min(len(candidates), GOMAXPROCS); 1 degenerates to a sequential
	// sweep (useful under an already-saturated caller).
	Parallelism int
	// ExactNodes bounds the Exact candidate's branch-and-bound search in
	// explored decision nodes — its anytime cutoff. Node counts, not
	// wall-clock, keep the race deterministic: the same request always
	// yields the same winner. 0 means exact.DefaultNodeBudget; ignored
	// unless sched.IDExact is among the candidates.
	ExactNodes int64
	// Trace, when non-nil, records one "candidate:<id>" span per racing
	// heuristic under TraceParent (obs.RootSpan for top-level spans), with
	// a "schedule" and an "evaluate" child. The Exact candidate's span
	// carries its explored-node count as the span value. A nil Trace costs
	// one nil check per span.
	Trace       *obs.Trace
	TraceParent int
}

// DefaultCandidates returns the default racing set: the paper's four
// heuristics in Table 1 order plus the Sequential baseline, whose
// (total work, M_seq) point anchors the memory end of the frontier.
func DefaultCandidates() []sched.HeuristicID {
	return append(sched.PaperHeuristics(), sched.IDSequential)
}

// Candidate is one heuristic's outcome in a race. Either Err is non-nil
// (the heuristic failed or panicked; the other candidates are unaffected)
// or the metric fields are valid.
type Candidate struct {
	ID       sched.HeuristicID
	Makespan float64
	// PeakMemory is the exact simulated peak memory of the schedule.
	PeakMemory int64
	// MakespanRatio is Makespan / the makespan lower bound (0 if the bound
	// is 0); MemoryRatio is PeakMemory / M_seq (0 if M_seq is 0).
	MakespanRatio float64
	MemoryRatio   float64
	// Elapsed is this candidate's own scheduling time; comparing the sum
	// over candidates with Result.Elapsed shows the racing speedup.
	Elapsed time.Duration
	Err     error
	// Proven, Explored, Pruned and MemoHits describe the Exact
	// candidate's search: Proven reports that the branch-and-bound
	// exhausted its space within the node budget (the schedule is
	// optimal, not merely best-found), Explored counts decision nodes,
	// Pruned those cut by the lower bound, and MemoHits those cut by
	// dominance memoization. Zero-valued on every other candidate.
	Proven   bool
	Explored int64
	Pruned   int64
	MemoHits int64
}

// Result is the outcome of one portfolio run.
type Result struct {
	// Objective is the selection policy that produced Winner.
	Objective Objective
	// Processors is the machine size the candidates were scheduled for;
	// Machine is the heterogeneous machine model when one was set (nil on
	// the paper's uniform machine).
	Processors int
	Machine    *machine.Model
	// MakespanLB is max(total work / Σ speeds, critical path / s_max)
	// (with p and 1 as the uniform denominators); MemorySeq is M_seq, the
	// best-postorder sequential peak — the normalization baselines of the
	// paper's evaluation.
	MakespanLB float64
	MemorySeq  int64
	// Candidates holds one entry per requested heuristic, in request
	// order, deterministic regardless of racing order.
	Candidates []Candidate
	// Frontier indexes the Pareto-optimal candidates in ascending-makespan
	// order (see Frontier).
	Frontier []int
	// Winner indexes the objective-selected candidate, or is -1 when every
	// candidate failed.
	Winner int
	// Elapsed is the wall time of the whole race.
	Elapsed time.Duration
}

// WinnerCandidate returns the selected candidate, or false when every
// candidate failed.
func (r *Result) WinnerCandidate() (Candidate, bool) {
	if r.Winner < 0 || r.Winner >= len(r.Candidates) {
		return Candidate{}, false
	}
	return r.Candidates[r.Winner], true
}

// OnFrontier reports whether candidate i is Pareto-optimal.
func (r *Result) OnFrontier(i int) bool {
	for _, f := range r.Frontier {
		if f == i {
			return true
		}
	}
	return false
}

// Run races the candidate heuristics of opts over t and selects a winner
// under obj. The scheduling precompute (Liu's best postorder, M_seq,
// depths, priority rankings) shared by all candidates is computed once,
// before the fan-out. A candidate that fails or panics costs only its own
// entry; cancellation of ctx abandons candidates that have not started and
// returns ctx.Err() (running candidates are pure CPU and finish their
// tree first).
func Run(ctx context.Context, t *tree.Tree, obj Objective, opts Options) (*Result, error) {
	if t == nil || t.Len() == 0 {
		return nil, errors.New("portfolio: tree is empty")
	}
	return RunPre(ctx, sched.NewPrecompute(t), obj, opts)
}

// RunPre is Run for callers that already hold the tree's sched.Precompute
// (the forest planner, repeated races over one tree): the race shares the
// caller's context instead of traversing the tree again. The precompute is
// safe for the concurrent candidate fan-out.
func RunPre(ctx context.Context, pc *sched.Precompute, obj Objective, opts Options) (*Result, error) {
	t := pc.Tree()
	if t == nil || t.Len() == 0 {
		return nil, errors.New("portfolio: tree is empty")
	}
	if err := obj.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Heuristics) == 0 {
		opts.Heuristics = DefaultCandidates()
	}
	// SelectPre validates the options and binds every candidate to the
	// shared precompute; M_seq comes for free. The Exact pseudo-heuristic
	// is this layer's to resolve, so it is stripped before selection and
	// its solver candidate spliced back in at the requested position.
	ids := opts.Heuristics
	schedIDs := ids
	exactStats := make([]exactStat, len(ids))
	if HasExact(ids) {
		schedIDs = WithoutExact(ids)
	}
	var hs []sched.Heuristic
	var memSeq int64
	if len(schedIDs) > 0 {
		o := opts.Options
		o.Heuristics = schedIDs
		var err error
		hs, memSeq, err = o.SelectPre(pc)
		if err != nil {
			return nil, err
		}
	} else {
		// Every candidate is Exact: validate the machine half of the
		// options without letting an empty heuristic list default back
		// to the paper four.
		o := opts.Options
		o.Heuristics = nil
		if err := o.Validate(); err != nil {
			return nil, err
		}
		memSeq = pc.MSeq()
	}
	if len(schedIDs) != len(ids) {
		memCap := exact.CapFromFactor(opts.MemCapFactor, memSeq)
		full := make([]sched.Heuristic, 0, len(ids))
		j := 0
		for i, id := range ids {
			if id != sched.IDExact {
				full = append(full, hs[j])
				j++
				continue
			}
			full = append(full, exactHeuristic(pc, memCap, opts.ExactNodes, &exactStats[i]))
		}
		hs = full
	}
	// One shared machine model for the whole race: every candidate
	// schedules for the same processors and speeds.
	m := opts.Options.Model()
	start := time.Now()
	cands, spans := race(ctx, t, m, hs, opts.Parallelism, opts.Trace, opts.TraceParent)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lb := sched.MakespanLowerBoundOn(t, m)
	for i := range cands {
		if st := &exactStats[i]; st.set {
			cands[i].Proven = st.proven
			cands[i].Explored = st.explored
			cands[i].Pruned = st.pruned
			cands[i].MemoHits = st.memoHits
			if spans != nil {
				// Safe after End: the race barrier has passed, so the span
				// exists and only its value is written.
				opts.Trace.SetValue(spans[i], st.explored)
			}
		}
		if cands[i].Err != nil {
			continue
		}
		if lb > 0 {
			cands[i].MakespanRatio = cands[i].Makespan / lb
		}
		if memSeq > 0 {
			cands[i].MemoryRatio = float64(cands[i].PeakMemory) / float64(memSeq)
		}
	}
	res := &Result{
		Objective:  obj,
		Processors: m.P(),
		MakespanLB: lb,
		MemorySeq:  memSeq,
		Candidates: cands,
		Frontier:   Frontier(cands),
		Winner:     obj.Select(cands, lb, memSeq),
		Elapsed:    time.Since(start),
	}
	if !m.IsUniform() {
		res.Machine = m
	}
	return res, nil
}

// exactStat carries the Exact candidate's search statistics out of its
// closure. Each slot is written by at most one racing goroutine and read
// only after the race's WaitGroup barrier, so no further synchronization
// is needed.
type exactStat struct {
	set      bool
	proven   bool
	explored int64
	pruned   int64
	memoHits int64
}

// HasExact reports whether ids selects the Exact pseudo-heuristic.
func HasExact(ids []sched.HeuristicID) bool {
	for _, id := range ids {
		if id == sched.IDExact {
			return true
		}
	}
	return false
}

// WithoutExact returns ids with the Exact pseudo-heuristic stripped: the
// selection sched validates and runs, since Exact is this package's to
// resolve.
func WithoutExact(ids []sched.HeuristicID) []sched.HeuristicID {
	out := make([]sched.HeuristicID, 0, len(ids))
	for _, id := range ids {
		if id != sched.IDExact {
			out = append(out, id)
		}
	}
	return out
}

// exactHeuristic wraps the branch-and-bound solver as a racing candidate:
// same cap as the capped heuristics (MemCapFactor × M_seq; no cap when
// the factor is unset), anytime under a deterministic node budget.
func exactHeuristic(pc *sched.Precompute, memCap, nodes int64, stat *exactStat) sched.Heuristic {
	runOn := func(t *tree.Tree, m *machine.Model) (*sched.Schedule, error) {
		if t != pc.Tree() {
			return nil, errors.New("portfolio: Exact candidate was selected for a different tree")
		}
		res, err := exact.SolvePre(pc, m, memCap, nodes)
		if err != nil {
			return nil, err
		}
		stat.set, stat.proven, stat.explored = true, res.Proven, res.Explored
		stat.pruned, stat.memoHits = res.Pruned, res.MemoHits
		return res.Schedule, nil
	}
	return sched.Heuristic{
		ID: sched.IDExact, Name: sched.IDExact.String(),
		Run: func(t *tree.Tree, p int) (*sched.Schedule, error) {
			return runOn(t, machine.Uniform(p))
		},
		RunOn: runOn,
	}
}

// race runs every heuristic over t with a bounded goroutine fan-out.
// Candidate i corresponds to hs[i], so the output order never depends on
// goroutine scheduling. Each candidate is individually recover-protected:
// a panic in one heuristic costs one Err entry, not the race. With a
// non-nil trace, each candidate records a "candidate:<id>" span under
// parent, with "schedule" and "evaluate" children; the returned span ids
// parallel the candidates (nil without a trace, so untraced races allocate
// nothing extra).
func race(ctx context.Context, t *tree.Tree, m *machine.Model, hs []sched.Heuristic, parallelism int, tr *obs.Trace, parent int) ([]Candidate, []int) {
	n := len(hs)
	if parallelism <= 0 || parallelism > n {
		parallelism = min(n, runtime.GOMAXPROCS(0))
	}
	if parallelism < 1 {
		parallelism = 1
	}
	cands := make([]Candidate, n)
	var spans []int
	if tr != nil {
		spans = make([]int, n)
	}
	span := func(i int) int {
		if tr == nil {
			return obs.RootSpan
		}
		spans[i] = tr.Start("candidate:"+hs[i].ID.String(), parent)
		return spans[i]
	}
	if parallelism == 1 {
		// A one-slot race (single-core machine, or an already-saturated
		// caller) is a plain loop: same candidate order, same ctx checks,
		// none of the goroutine/semaphore overhead.
		for i := range hs {
			cands[i].ID = hs[i].ID
			if err := ctx.Err(); err != nil {
				cands[i].Err = err
				continue
			}
			id := span(i)
			start := time.Now()
			runOne(t, m, hs[i], &cands[i], tr, id)
			cands[i].Elapsed = time.Since(start)
			tr.End(id)
		}
		return cands, spans
	}
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i := range hs {
		cands[i].ID = hs[i].ID
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				cands[i].Err = ctx.Err()
				return
			}
			if err := ctx.Err(); err != nil { // canceled while a slot freed up
				cands[i].Err = err
				return
			}
			id := span(i)
			start := time.Now()
			runOne(t, m, hs[i], &cands[i], tr, id)
			cands[i].Elapsed = time.Since(start)
			tr.End(id)
		}(i)
	}
	wg.Wait()
	return cands, spans
}

// runOne executes and measures a single candidate, containing panics.
// Validation, makespan and peak memory come from one sched.Evaluate pass.
// The two steps record "schedule" and "evaluate" spans under the
// candidate's span.
func runOne(t *tree.Tree, m *machine.Model, h sched.Heuristic, c *Candidate, tr *obs.Trace, span int) {
	defer func() {
		if r := recover(); r != nil {
			c.Err = fmt.Errorf("portfolio: %s panicked: %v", h.Name, r)
		}
	}()
	sid := tr.Start("schedule", span)
	s, err := h.RunOn(t, m)
	tr.End(sid)
	if err != nil {
		c.Err = err
		return
	}
	eid := tr.Start("evaluate", span)
	mk, peak, err := sched.Evaluate(t, s)
	tr.End(eid)
	if err != nil {
		c.Err = err
		return
	}
	c.Makespan = mk
	c.PeakMemory = peak
}
