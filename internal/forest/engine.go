package forest

import (
	"context"
	"fmt"
	"sort"

	"treesched/internal/machine"
	"treesched/internal/obs"
	"treesched/internal/stats"
	"treesched/internal/tree"
)

// Run simulates the trace on one shared machine under cfg and returns
// per-job results in trace order plus the aggregate summary. The run is
// deterministic for a fixed (trace, config): planning races select
// deterministically and every event-loop tie breaks by job admission
// order and plan rank.
func Run(ctx context.Context, jobs []Job, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := cfg.model()
	cfg.Processors = m.P()
	tr := cfg.Trace
	planSpan := tr.Start("plan", cfg.TraceParent)
	states := planJobs(ctx, jobs, cfg, planSpan)
	tr.SetValue(planSpan, int64(len(jobs)))
	tr.End(planSpan)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var maxMemSeq int64
	for _, js := range states {
		if js.rejectReason == "" && js.memSeq > maxMemSeq {
			maxMemSeq = js.memSeq
		}
	}
	cap := cfg.resolveCap(maxMemSeq)
	for _, js := range states {
		if js.rejectReason == "" && js.memSeq > cap {
			js.rejectReason = fmt.Sprintf("sequential peak %d exceeds memory cap %d", js.memSeq, cap)
		}
	}
	hp := getEngineHeaps()
	e := &engine{cfg: cfg, m: m, cap: cap, states: states,
		ready: hp.ready, fin: hp.fin, skipped: hp.skipped}
	if cfg.Timeline {
		e.tl = &Timeline{Cap: cap, JobIDs: make([]string, len(states))}
		for i, js := range states {
			e.tl.JobIDs[i] = js.id
		}
	}
	simSpan := tr.Start("simulate", cfg.TraceParent)
	err := e.simulate(ctx)
	tr.SetValue(simSpan, int64(e.rounds))
	tr.End(simSpan)
	hp.ready, hp.fin, hp.skipped = e.ready, e.fin, e.skipped
	putEngineHeaps(hp)
	if err != nil {
		return nil, err
	}
	res := e.collect()
	res.Timeline = e.tl
	return res, nil
}

// readyItem is one startable task in the global ready queue. Priority is
// (job admission order, plan rank): earlier-admitted jobs get processors
// first, and within a job tasks follow the standalone plan's order.
type readyItem struct {
	seq  int
	rank int
	js   *jobState
	node int
}

// finEvent is a scheduled task completion.
type finEvent struct {
	at   float64
	seq  int
	rank int
	js   *jobState
	node int
	proc int32
}

// admissionWindow bounds the per-event scan of the ready queue, exactly as
// in sched.IDMemCappedBooking: every admitted job's σ-front is retried by
// the fallback pass, so the window only trades scheduling quality for
// speed, never progress.
const admissionWindow = 256

// engine is the discrete-event state of one forest run.
type engine struct {
	cfg    Config
	m      *machine.Model
	cap    int64
	states []*jobState

	now     float64
	queue   []*jobState // arrived, not yet admitted
	active  []*jobState // admitted, not yet finished, admission order
	ready   readyHeap
	fin     finHeap
	skipped []readyItem
	procs   *machine.State

	mem       int64 // resident memory right now (all tenants)
	bookedSeq int64 // Σ over active jobs of futurePeak[next]
	extraUsed int64 // budget charged by out-of-σ-order tasks
	peak      int64

	admitted    int
	tasks       int
	maxQueued   int
	maxRunning  int
	rounds      int
	bookRejects int

	tl *Timeline // nil unless Config.Timeline
}

func (e *engine) simulate(ctx context.Context) error {
	// Arrival order: (arrival, trace index).
	arrivals := make([]*jobState, 0, len(e.states))
	for _, js := range e.states {
		if js.rejectReason == "" {
			arrivals = append(arrivals, js)
		}
	}
	sort.SliceStable(arrivals, func(a, b int) bool {
		if arrivals[a].arrival != arrivals[b].arrival {
			return arrivals[a].arrival < arrivals[b].arrival
		}
		return arrivals[a].idx < arrivals[b].idx
	})
	e.procs = machine.NewState(e.m)
	defer func() { e.procs.Recycle(); e.procs = nil }()

	ai := 0
	for rounds := 0; ; rounds++ {
		// A disconnected client must not pin a pool worker for the whole
		// simulation; checking every so many events keeps the overhead
		// off the hot path.
		if rounds%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		next, ok := e.nextEventTime(arrivals, ai)
		if !ok {
			break
		}
		e.rounds++
		e.now = next
		// Completions release memory and processors before arrivals and
		// admissions allocate — the same tie-break as the single-tree
		// simulator's evEnd < evStart.
		for len(e.fin) > 0 && e.fin[0].at <= e.now {
			ev := e.fin.pop()
			e.completeTask(ev.js, ev.node, ev.proc)
		}
		for ai < len(arrivals) && arrivals[ai].arrival <= e.now {
			e.queue = append(e.queue, arrivals[ai])
			ai++
		}
		if len(e.queue) > e.maxQueued {
			e.maxQueued = len(e.queue)
		}
		e.admitJobs()
		e.assign()
		if e.mem > e.cap {
			return fmt.Errorf("forest: internal error: resident memory %d exceeds cap %d at t=%g", e.mem, e.cap, e.now)
		}
		if e.tl != nil {
			e.tl.Memory = append(e.tl.Memory, TimelineSample{At: e.now, Resident: e.mem})
		}
	}
	// Every feasible job must have completed: the booking invariant
	// guarantees progress, so anything left is an engine bug.
	for _, js := range e.states {
		if js.rejectReason == "" && js.done != js.t.Len() {
			return fmt.Errorf("forest: internal error: job %s stalled with %d of %d tasks done", js.id, js.done, js.t.Len())
		}
	}
	if e.mem != 0 || e.bookedSeq != 0 || e.extraUsed != 0 {
		return fmt.Errorf("forest: internal error: leaked accounting at end (mem=%d booked=%d extra=%d)", e.mem, e.bookedSeq, e.extraUsed)
	}
	return nil
}

// nextEventTime returns the earliest pending event time: a task
// completion or the next arrival.
func (e *engine) nextEventTime(arrivals []*jobState, ai int) (float64, bool) {
	have := false
	var t float64
	if len(e.fin) > 0 {
		t, have = e.fin[0].at, true
	}
	if ai < len(arrivals) && (!have || arrivals[ai].arrival < t) {
		t, have = arrivals[ai].arrival, true
	}
	return t, have
}

// fits reports whether admitting js preserves the cross-tree booking
// invariant: all residual sequential peaks plus the charged extras plus
// the newcomer's full sequential peak must fit under the cap.
func (e *engine) fits(js *jobState) bool {
	return e.bookedSeq+e.extraUsed+js.futurePeak[0] <= e.cap
}

// admitJobs dispatches queued jobs in policy order. At most one job per
// currently free processor is admitted per event — each admission should
// translate into immediate progress, and deferring the rest keeps the
// policy's choice as late (and as informed) as possible. Non-backfill
// policies (FIFO) stop at the first job that does not fit.
func (e *engine) admitJobs() {
	if len(e.queue) == 0 || e.procs.Idle() == 0 {
		return
	}
	pol := e.cfg.Policy
	sort.SliceStable(e.queue, func(a, b int) bool { return pol.less(e.queue[a], e.queue[b]) })
	budget := e.procs.Idle()
	kept := e.queue[:0]
	for qi, js := range e.queue {
		if budget > 0 {
			if e.fits(js) {
				e.admit(js)
				budget--
				continue
			}
			e.bookRejects++
		}
		kept = append(kept, js)
		if !pol.backfill() {
			kept = append(kept, e.queue[qi+1:]...)
			break
		}
	}
	e.queue = kept
}

func (e *engine) admit(js *jobState) {
	js.admitSeq = e.admitted
	e.admitted++
	js.startTime = e.now
	e.bookedSeq += js.futurePeak[0]
	e.active = append(e.active, js)
	if len(e.active) > e.maxRunning {
		e.maxRunning = len(e.active)
	}
	for v := 0; v < js.t.Len(); v++ {
		if js.remaining[v] == 0 {
			e.ready.push(readyItem{js.admitSeq, js.rank[v], js, v})
		}
	}
}

// admissible reports whether task v of job js may start now. A task on
// its job's σ-front rides the job's sequential reservation; any other
// task charges its footprint against the unbooked budget.
func (e *engine) admissible(js *jobState, v int) bool {
	if js.runningTasks >= js.width {
		return false
	}
	foot := js.t.N(v) + js.t.F(v)
	if e.mem+foot > e.cap {
		return false
	}
	if js.pos[v] == js.next {
		return true
	}
	return e.extraUsed+foot <= e.cap-e.bookedSeq
}

// assign fills free processors from the global ready queue in (admission
// order, plan rank) priority, then retries every active job's σ-front —
// the task the booking invariant guarantees admissible once memory
// drains — so the admission window can never stall progress. Processors
// come from the machine state: fastest-first on a heterogeneous model,
// the historical LIFO stack on a uniform one.
func (e *engine) assign() {
	skipped := e.skipped[:0]
	scanned := 0
	for e.procs.Idle() > 0 && len(e.ready) > 0 && scanned < admissionWindow {
		it := e.ready.pop()
		scanned++
		if !e.admissible(it.js, it.node) {
			skipped = append(skipped, it)
			continue
		}
		e.startTask(it.js, it.node, e.procs.Take())
	}
	for _, it := range skipped {
		e.ready.push(it)
	}
	e.skipped = skipped
	for e.procs.Idle() > 0 {
		progressed := false
		for _, js := range e.active {
			if e.procs.Idle() == 0 {
				break
			}
			if js.next >= js.t.Len() {
				continue
			}
			v := js.order[js.next]
			if js.started[v] || js.remaining[v] != 0 || !e.admissible(js, v) {
				continue
			}
			if i := js.heapPos[v]; i >= 0 {
				e.ready.removeAt(i)
				e.startTask(js, v, e.procs.Take())
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
}

func (e *engine) startTask(js *jobState, v int, proc int32) {
	t := js.t
	js.started[v] = true
	js.runningTasks++
	e.mem += t.N(v) + t.F(v)
	if e.mem > e.peak {
		e.peak = e.mem
	}
	if js.pos[v] > js.next {
		js.outOfOrder[v] = true
		e.extraUsed += t.N(v) + t.F(v)
	}
	old := js.next
	for js.next < t.Len() && js.started[js.order[js.next]] {
		js.next++
	}
	if js.next != old {
		e.bookedSeq += js.futurePeak[js.next] - js.futurePeak[old]
	}
	end := e.now + e.m.ExecTime(t.W(v), int(proc))
	e.fin.push(finEvent{end, js.admitSeq, js.rank[v], js, v, proc})
	e.tasks++
	if e.tl != nil {
		e.tl.Tasks = append(e.tl.Tasks, TimelineTask{
			Job: js.idx, Node: v, Proc: int(proc), Start: e.now, End: end,
		})
	}
}

func (e *engine) completeTask(js *jobState, v int, proc int32) {
	t := js.t
	js.runningTasks--
	e.mem -= t.N(v) + t.InSize(v)
	if js.outOfOrder[v] {
		e.extraUsed -= t.N(v)
	}
	for _, c := range t.Children(v) {
		if js.outOfOrder[c] {
			e.extraUsed -= t.F(c)
			js.outOfOrder[c] = false
		}
	}
	e.procs.Put(proc)
	js.done++
	if pa := t.Parent(v); pa != tree.None {
		js.remaining[pa]--
		if js.remaining[pa] == 0 {
			e.ready.push(readyItem{js.admitSeq, js.rank[pa], js, pa})
		}
		return
	}
	// The root is every other node's ancestor, so its completion is the
	// job's completion. Its output file leaves the machine (the result is
	// shipped to the tenant, not parked in shared memory).
	e.mem -= t.F(v)
	if js.outOfOrder[v] {
		e.extraUsed -= t.F(v)
		js.outOfOrder[v] = false
	}
	js.finishTime = e.now
	for i, a := range e.active {
		if a == js {
			e.active = append(e.active[:i], e.active[i+1:]...)
			break
		}
	}
}

// collect builds the per-job results and the summary.
func (e *engine) collect() *Result {
	res := &Result{Jobs: make([]JobResult, len(e.states))}
	var (
		latencies, stretches, waits []float64
		completedWork               float64
		makespan                    float64
	)
	for i, js := range e.states {
		jr := JobResult{
			ID:      js.id,
			Index:   js.idx,
			Arrival: js.arrival,
			Weight:  js.weight,
		}
		if js.rejectReason != "" {
			jr.Status = StatusRejected
			jr.Reason = js.rejectReason
			if js.t != nil {
				jr.Nodes = js.t.Len()
				jr.Work = js.totalW
				jr.MemSeq = js.memSeq
			}
			res.Jobs[i] = jr
			continue
		}
		jr.Status = StatusCompleted
		jr.Nodes = js.t.Len()
		jr.Work = js.totalW
		jr.Width = js.width
		jr.PlannedBy = js.plannedBy.String()
		jr.MemSeq = js.memSeq
		jr.PlanMakespan = js.planMakespan
		jr.PlanPeakMemory = js.planPeak
		jr.Start = js.startTime
		jr.Finish = js.finishTime
		jr.Wait = js.startTime - js.arrival
		jr.Latency = js.finishTime - js.arrival
		if js.planMakespan > 0 {
			jr.Stretch = jr.Latency / js.planMakespan
		}
		latencies = append(latencies, jr.Latency)
		waits = append(waits, jr.Wait)
		if jr.Stretch > 0 {
			stretches = append(stretches, jr.Stretch)
		}
		completedWork += js.totalW
		if js.finishTime > makespan {
			makespan = js.finishTime
		}
		res.Jobs[i] = jr
	}
	s := &res.Summary
	s.Jobs = len(e.states)
	s.Rejected = s.Jobs - len(latencies)
	s.Completed = len(latencies)
	s.Processors = e.cfg.Processors
	if !e.m.IsUniform() {
		s.Machine = e.m.Spec()
	}
	s.MemCap = e.cap
	s.Policy = e.cfg.Policy
	s.Makespan = makespan
	if makespan > 0 {
		// Utilization normalizes by the machine's aggregate speed: work is
		// measured in w units, and Σ speeds × time is the w-capacity of the
		// machine over the run (= p × makespan on a uniform machine).
		s.Utilization = completedWork / (e.m.SumSpeed() * makespan)
	}
	s.PeakResident = e.peak
	s.TasksExecuted = e.tasks
	s.MaxQueued = e.maxQueued
	s.MaxRunning = e.maxRunning
	s.MeanLatency = stats.Mean(latencies)
	s.P50Latency = stats.Percentile(latencies, 50)
	s.P99Latency = stats.Percentile(latencies, 99)
	s.MeanStretch = stats.Mean(stretches)
	for _, st := range stretches {
		if st > s.MaxStretch {
			s.MaxStretch = st
		}
	}
	s.MeanWait = stats.Mean(waits)
	s.Rounds = e.rounds
	s.BookingRejections = e.bookRejects
	if len(waits) > 0 {
		// Waits are simulation-time floats; record them in micro-units on
		// exponential buckets so the snapshot's bounds come back out in
		// plain time units spanning 1e-6 .. 1e5.
		h := obs.NewHistogram("forest_wait", "", 1e-6, obs.ExpBuckets(1, 10, 12))
		for _, w := range waits {
			h.Observe(int64(w * 1e6))
		}
		s.WaitHistogram = h.Snapshot()
	}
	return res
}
