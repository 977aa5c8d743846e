package forest

import (
	"context"
	"fmt"
	"math"
	"sort"

	"treesched/internal/par"
	"treesched/internal/portfolio"
	"treesched/internal/sched"
	"treesched/internal/tree"
)

// jobState is one trace job with its standalone plan and the engine's
// runtime bookkeeping. Planning fields are immutable after planJobs.
type jobState struct {
	idx     int // trace index
	id      string
	t       *tree.Tree
	arrival float64
	weight  float64
	width   int     // planning width = in-machine concurrency limit
	tag     float64 // weighted-fair finish tag: arrival + totalW/weight
	totalW  float64

	plannedBy    sched.HeuristicID
	planMakespan float64
	planPeak     int64
	rank         []int // node -> plan execution rank (start time order)

	// Booking reference: σ (the memory-optimal postorder), its inverse,
	// and the suffix maxima of its sequential step peaks. memSeq =
	// futurePeak[0] is the admission reservation.
	order      []int
	pos        []int
	futurePeak []int64 // len n+1, futurePeak[n] = 0
	memSeq     int64

	rejectReason string // non-empty: never enters the queue

	// Runtime state, owned by the engine.
	admitSeq     int
	next         int
	remaining    []int
	started      []bool
	outOfOrder   []bool
	heapPos      []int // node -> index in the global ready heap, -1 if absent
	runningTasks int
	done         int
	startTime    float64
	finishTime   float64
}

// planJobs plans every trace job standalone: resolves its width, runs the
// heuristic (or a portfolio race for objective-carrying jobs), derives the
// plan's task ranks, and computes the booking reference σ with its
// futurePeak suffix maxima. Jobs are planned concurrently — planning is
// the expensive part of a forest run — with results placed by index, so
// the outcome never depends on goroutine scheduling.
func planJobs(ctx context.Context, jobs []Job, cfg Config, planSpan int) []*jobState {
	states := make([]*jobState, len(jobs))
	par.ForEach(len(jobs), func(i int) {
		// A canceled run stops picking up new jobs; in-flight plans are
		// pure CPU on one tree and finish (same convention as
		// portfolio.Run). Run returns ctx.Err() before reading these.
		if ctx.Err() != nil {
			states[i] = &jobState{idx: i, rejectReason: "planning canceled"}
			return
		}
		// One span per job under the shared "plan" span, carrying the
		// job's node count. Explicit parents keep concurrent planners from
		// racing on an implicit span stack.
		var sp int
		if tr := cfg.Trace; tr != nil {
			name := jobs[i].ID
			if name == "" {
				name = fmt.Sprintf("job-%d", i)
			}
			sp = tr.Start("plan:"+name, planSpan)
		}
		states[i] = planJob(ctx, i, &jobs[i], cfg)
		if tr := cfg.Trace; tr != nil {
			if states[i].t != nil {
				tr.SetValue(sp, int64(states[i].t.Len()))
			}
			tr.End(sp)
		}
	})
	return states
}

func planJob(ctx context.Context, idx int, j *Job, cfg Config) *jobState {
	js := &jobState{
		idx:     idx,
		id:      j.ID,
		arrival: j.Arrival,
		weight:  j.Weight,
	}
	if js.id == "" {
		js.id = fmt.Sprintf("job-%d", idx)
	}
	if js.weight <= 0 || math.IsNaN(js.weight) {
		js.weight = 1
	}
	if j.Arrival < 0 || math.IsNaN(j.Arrival) || math.IsInf(j.Arrival, 0) {
		js.rejectReason = fmt.Sprintf("invalid arrival time %v", j.Arrival)
		return js
	}
	t, err := j.resolveTree()
	if err != nil {
		js.rejectReason = err.Error()
		return js
	}
	if t.Len() == 0 {
		js.rejectReason = "tree is empty"
		return js
	}
	js.t = t
	js.totalW = t.TotalW()
	js.tag = js.arrival + js.totalW/js.weight
	js.width = cfg.Processors
	if j.Procs > 0 && j.Procs < js.width {
		js.width = j.Procs
	}

	// One scheduling precompute serves the whole job: the booking
	// reference (σ, its inverse, the futurePeak suffix maxima — exactly
	// the invariants of sched.IDMemCappedBooking), the planning heuristic,
	// and every candidate of a portfolio race. Liu's traversal runs once
	// per job, not once per consumer.
	pc := sched.NewPrecompute(t)
	n := t.Len()
	js.order = pc.Order()
	js.pos = pc.Pos()
	js.futurePeak = pc.FuturePeak()
	js.memSeq = pc.MSeq()

	sc, by, err := planSchedule(ctx, pc, j, js.width, cfg.DefaultHeuristic)
	if err != nil {
		js.rejectReason = fmt.Sprintf("planning failed: %v", err)
		return js
	}
	js.plannedBy = by
	js.planMakespan = sc.Makespan(t)
	js.planPeak = sched.PeakMemory(t, sc)
	js.rank = planRanks(t, sc)

	js.remaining = make([]int, n)
	js.started = make([]bool, n)
	js.outOfOrder = make([]bool, n)
	js.heapPos = make([]int, n)
	for v := 0; v < n; v++ {
		js.remaining[v] = t.NumChildren(v)
		js.heapPos[v] = -1
	}
	return js
}

// planSchedule produces the job's standalone plan: the winner's schedule
// of a portfolio race when the job carries an objective or names Auto, a
// single heuristic's otherwise. Everything runs off the job's shared
// precompute.
func planSchedule(ctx context.Context, pc *sched.Precompute, j *Job, width int, def sched.HeuristicID) (*sched.Schedule, sched.HeuristicID, error) {
	id := def
	if j.Heuristic != nil {
		id = *j.Heuristic
	}
	opts := sched.Options{Processors: width, MemCapFactor: j.MemCapFactor}
	if j.Objective != nil || id == sched.IDAuto {
		obj := portfolio.MinMakespan()
		if j.Objective != nil {
			obj = *j.Objective
		}
		// Parallelism 1: forest planning already fans out across jobs, so
		// racing each job's candidates concurrently too would oversubscribe.
		res, err := portfolio.RunPre(ctx, pc, obj, portfolio.Options{Options: opts, Parallelism: 1})
		if err != nil {
			return nil, 0, err
		}
		w, ok := res.WinnerCandidate()
		if !ok {
			return nil, 0, fmt.Errorf("every portfolio candidate failed")
		}
		return w.Schedule, w.ID, nil
	}
	opts.Heuristics = []sched.HeuristicID{id}
	hs, _, err := opts.SelectPre(pc)
	if err != nil {
		return nil, 0, err
	}
	sc, err := hs[0].Run(pc.Tree(), width)
	if err != nil {
		return nil, 0, err
	}
	return sc, id, nil
}

// planRanks orders the tree's nodes by the plan's start times (processor,
// then node id breaking exact ties) and returns the inverse permutation:
// rank[v] is v's execution priority inside its job.
func planRanks(t *tree.Tree, sc *sched.Schedule) []int {
	n := t.Len()
	byStart := make([]int, n)
	for v := range byStart {
		byStart[v] = v
	}
	sort.Slice(byStart, func(a, b int) bool {
		va, vb := byStart[a], byStart[b]
		if sc.Start[va] != sc.Start[vb] {
			return sc.Start[va] < sc.Start[vb]
		}
		if sc.Proc[va] != sc.Proc[vb] {
			return sc.Proc[va] < sc.Proc[vb]
		}
		return va < vb
	})
	rank := make([]int, n)
	for r, v := range byStart {
		rank[v] = r
	}
	return rank
}
