// Package forest implements an online multi-tenant scheduler for streams
// of tree-shaped jobs sharing one machine: a discrete-event engine consumes
// a job trace (tree + arrival time + weight + per-job objective), plans
// each job with the existing sched/portfolio machinery, and simulates the
// execution of all admitted jobs on p shared processors under one global
// memory cap.
//
// The single-tree layers of this repository answer the paper's question —
// schedule one tree on p processors, trading makespan against peak memory.
// Real multifrontal and serving workloads are forests: many trees arriving
// over time and competing for the same processors and memory, the
// memory-bounded parallel regime of Eyraud-Dubois, Marchal, Sinnen and
// Vivien, "Parallel scheduling of task trees with limited memory" (2014).
//
// # Cross-tree memory booking
//
// The engine generalizes MemCappedBooking's invariant across trees. Every
// admitted job j carries the memory-optimal sequential postorder σ_j of
// its tree and the suffix maxima futurePeak_j[k] of σ_j's step peaks (the
// largest memory a purely sequential execution of the remaining suffix
// ever needs). A job is admitted only while
//
//	Σ_running futurePeak_j[next_j] + extraUsed + futurePeak_new[0] ≤ cap,
//
// and a task beyond some job's σ-front charges its footprint against the
// budget cap − Σ futurePeak_j[next_j] until its file is consumed. Any
// resident file is either part of a job's σ-prefix state (bounded by that
// job's residual sequential peak) or charged to the budget, so resident
// memory never exceeds cap, and every admitted job can always advance its
// σ-front once the machine drains — admission can never deadlock,
// regardless of how many tenants are interleaved.
//
// # Planning versus execution
//
// Each job is planned standalone at arrival — a single heuristic, or a
// portfolio race when the job carries an objective (or names Auto) — and
// the plan's task order becomes the job's internal execution priority.
// The engine then interleaves all running jobs at task granularity:
// processors are shared, the admission policy (FIFO, shortest-job-first by
// work, smallest-M_seq-first, weighted fair sharing) decides which queued
// job is dispatched when capacity frees, and the booking invariant decides
// which tasks may start. Per-job latency, stretch and makespan, machine
// utilization and the global peak resident memory are reported per run.
//
// Results are deterministic for a fixed (trace, seed, policy): planning is
// racing-concurrent but selects deterministically, and the event loop
// breaks every tie by job admission order and plan rank.
package forest

import (
	"fmt"

	"treesched/internal/machine"
	"treesched/internal/obs"
	"treesched/internal/sched"
)

// DefaultMemCapFactor sizes the global memory cap when Config.MemCap is
// zero: cap = factor × the largest sequential peak (M_seq) over the
// trace's jobs, so every job is individually admissible by default.
const DefaultMemCapFactor = 2

// Config parameterizes a forest run.
type Config struct {
	// Processors is the shared machine size p. Required (>= 1) unless
	// Machine is set, in which case it must be 0 or equal to Machine.P().
	Processors int
	// Machine is the explicit machine model shared by all jobs:
	// per-processor speeds for a heterogeneous (related-machines) cluster.
	// nil means the uniform machine of Processors unit-speed processors.
	Machine *machine.Model
	// MemCap is the global resident-memory cap shared by all running
	// jobs. 0 means MemCapFactor × max over jobs of M_seq.
	MemCap int64
	// MemCapFactor sizes MemCap when it is 0 (default DefaultMemCapFactor).
	// Factors below 1 reject the largest jobs by construction.
	MemCapFactor float64
	// Policy orders the admission queue. The zero value is FIFO.
	Policy Policy
	// DefaultHeuristic plans jobs that specify neither a heuristic nor an
	// objective. The zero value is ParSubtrees (the paper's memory-focused
	// heuristic, a sensible default under a shared cap). Auto plans every
	// such job with a min_makespan portfolio race.
	DefaultHeuristic sched.HeuristicID
	// Trace, when non-nil, records the run's phases as spans under
	// TraceParent (obs.RootSpan for top-level spans): one "plan" span with
	// a "plan:<job id>" child per job (concurrent planning is safe — the
	// trace serializes internally and children carry explicit parents) and
	// one "simulate" span whose value is the event-loop round count. A nil
	// Trace costs one nil check per phase.
	Trace       *obs.Trace
	TraceParent int
	// Timeline, when true, retains the executed timeline on the Result: one
	// task event per started task and the resident-memory step curve, the
	// input of WriteChromeTrace's one-track-per-job rendering. Costs two
	// slices proportional to tasks and event rounds; off by default.
	Timeline bool
}

func (c Config) validate() error {
	if c.Machine != nil {
		if c.Processors != 0 && c.Processors != c.Machine.P() {
			return fmt.Errorf("forest: processors %d conflicts with machine %q (%d processors)",
				c.Processors, c.Machine.Spec(), c.Machine.P())
		}
	} else if c.Processors < 1 {
		return fmt.Errorf("forest: processors must be >= 1, got %d", c.Processors)
	}
	if c.MemCap < 0 {
		return fmt.Errorf("forest: mem cap must be >= 0, got %d", c.MemCap)
	}
	if c.MemCap == 0 && c.MemCapFactor != 0 && !(c.MemCapFactor > 0) {
		return fmt.Errorf("forest: mem cap factor must be > 0, got %g", c.MemCapFactor)
	}
	if !c.DefaultHeuristic.Valid() {
		return fmt.Errorf("forest: invalid default heuristic id %d", int(c.DefaultHeuristic))
	}
	return nil
}

// model resolves the effective machine: Machine when set, else the
// uniform machine of size Processors. Only valid after validate.
func (c Config) model() *machine.Model {
	if c.Machine != nil {
		return c.Machine
	}
	return machine.Uniform(c.Processors)
}

// Job statuses reported in JobResult.Status.
const (
	StatusCompleted = "completed"
	StatusRejected  = "rejected"
)

// JobResult is the per-job outcome of a forest run, in trace order.
type JobResult struct {
	ID     string `json:"id"`
	Index  int    `json:"index"`
	Status string `json:"status"`
	// Reason explains a rejection (sequential peak above the cap, an
	// invalid tree or plan failure); empty for completed jobs.
	Reason string  `json:"reason,omitempty"`
	Nodes  int     `json:"nodes,omitempty"`
	Work   float64 `json:"work,omitempty"`
	Weight float64 `json:"weight,omitempty"`
	// Width is the planning width: the number of processors the job's
	// standalone plan targets and the job's concurrency limit inside the
	// shared machine.
	Width int `json:"width,omitempty"`
	// PlannedBy names the heuristic that produced the plan (the portfolio
	// winner for objective-carrying jobs).
	PlannedBy string `json:"planned_by,omitempty"`
	// MemSeq is the job's sequential peak (M_seq) — its admission
	// reservation on entry; PlanMakespan and PlanPeakMemory are the
	// standalone plan's metrics (the contention-free baseline).
	MemSeq         int64   `json:"mem_seq,omitempty"`
	PlanMakespan   float64 `json:"plan_makespan,omitempty"`
	PlanPeakMemory int64   `json:"plan_peak_memory,omitempty"`
	Arrival        float64 `json:"arrival"`
	// Start is the admission (dispatch) time, Finish the completion time
	// of the job's root task.
	Start  float64 `json:"start,omitempty"`
	Finish float64 `json:"finish,omitempty"`
	// Wait = Start − Arrival; Latency = Finish − Arrival; Stretch =
	// Latency / PlanMakespan (1 means the job ran as fast as its
	// standalone plan despite sharing the machine).
	Wait    float64 `json:"wait,omitempty"`
	Latency float64 `json:"latency,omitempty"`
	Stretch float64 `json:"stretch,omitempty"`
}

// Summary aggregates one forest run.
type Summary struct {
	Jobs       int `json:"jobs"`
	Completed  int `json:"completed"`
	Rejected   int `json:"rejected"`
	Processors int `json:"p"`
	// Machine is the canonical machine spec when the run used a
	// heterogeneous model; empty on a uniform machine.
	Machine string `json:"machine,omitempty"`
	MemCap  int64  `json:"mem_cap"`
	Policy  Policy `json:"policy"`
	// Makespan is the completion time of the last job; Utilization is
	// total completed work / (p × Makespan).
	Makespan    float64 `json:"makespan"`
	Utilization float64 `json:"utilization"`
	// PeakResident is the largest resident memory the machine ever held;
	// the engine guarantees PeakResident <= MemCap.
	PeakResident  int64   `json:"peak_resident"`
	TasksExecuted int     `json:"tasks_executed"`
	MaxQueued     int     `json:"max_queued"`
	MaxRunning    int     `json:"max_running"`
	MeanLatency   float64 `json:"mean_latency"`
	P50Latency    float64 `json:"p50_latency"`
	P99Latency    float64 `json:"p99_latency"`
	MeanStretch   float64 `json:"mean_stretch"`
	MaxStretch    float64 `json:"max_stretch"`
	MeanWait      float64 `json:"mean_wait"`
	// Rounds counts event-loop iterations (distinct event instants the
	// engine advanced through); BookingRejections counts admission
	// attempts deferred because the cross-tree booking invariant would
	// not hold — how often the memory cap, not the processors, was the
	// reason a queued job kept waiting.
	Rounds            int `json:"rounds"`
	BookingRejections int `json:"booking_rejections"`
	// WaitHistogram is the distribution of completed jobs' admission
	// waits (Start − Arrival, simulation time units) under this run's
	// policy — the summary's per-policy queueing picture beyond MeanWait.
	WaitHistogram *obs.Snapshot `json:"wait_histogram,omitempty"`
}

// Result is the outcome of one forest run: per-job results in trace order
// plus the aggregate summary.
type Result struct {
	Jobs    []JobResult `json:"jobs"`
	Summary Summary     `json:"summary"`
	// Timeline is the executed timeline, present only when Config.Timeline
	// was set.
	Timeline *Timeline `json:"timeline,omitempty"`
}

// resolveCap turns the config's cap specification into an absolute cap
// given the largest sequential peak in the trace.
func (c Config) resolveCap(maxMemSeq int64) int64 {
	if c.MemCap > 0 {
		return c.MemCap
	}
	factor := c.MemCapFactor
	if factor == 0 {
		factor = DefaultMemCapFactor
	}
	return sched.CapFromFactor(factor, maxMemSeq)
}
