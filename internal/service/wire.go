package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"treesched/internal/machine"
	"treesched/internal/obs"
	"treesched/internal/portfolio"
	"treesched/internal/resilience"
	"treesched/internal/sched"
	"treesched/internal/tree"
)

// Request is one scheduling job: a tree, a machine size and an optional
// heuristic selection. Exactly one of Tree and TreeText must be set.
type Request struct {
	// ID is an opaque client tag echoed in the Response; useful for
	// correlating lines of a batch.
	ID string `json:"id,omitempty"`
	// Tree is the task tree in JSON form:
	// {"parent":[-1,0,0],"w":[1,1,1],"n":[0,0,0],"f":[1,2,3]}
	// (parent -1 marks the root; n and f default to zero when omitted).
	Tree *tree.Tree `json:"tree,omitempty"`
	// TreeText is the task tree in the textual treegen format, as an
	// alternative to Tree.
	TreeText string `json:"tree_text,omitempty"`
	// Processors is the machine size p (>= 1). Required unless Machine is
	// set, in which case it must be absent or equal to the machine's
	// processor count.
	Processors int `json:"p"`
	// Machine is an explicit machine spec: a bare processor count ("4")
	// or heterogeneous speed groups ("2x1.0+2x0.5" — 2 unit-speed + 2
	// half-speed processors, the related-machines model). A uniform spec
	// is equivalent to setting p.
	Machine string `json:"machine,omitempty"`
	// Heuristics names the schedulers to run, in output order: any of
	// ParSubtrees, ParSubtreesOptim, ParInnerFirst, ParDeepestFirst,
	// ParInnerFirstArbitrary, Sequential, OptimalSequential, MemCapped,
	// MemCappedBooking, and the pseudo-heuristic Auto (race the portfolio
	// and select by Objective). Empty means the paper's four heuristics —
	// or the default portfolio set when Objective is set or the request
	// arrived on /v1/portfolio.
	Heuristics []sched.HeuristicID `json:"heuristics,omitempty"`
	// MemCapFactor sets the cap of MemCapped/MemCappedBooking to
	// MemCapFactor × M_seq. Required (>= 1) iff a capped heuristic is
	// selected.
	MemCapFactor float64 `json:"mem_cap_factor,omitempty"`
	// Partitions is the field of the removed partitioned ParInnerFirst
	// scheduler. 0 and 1 keep meaning the sequential scheduler; any other
	// value is rejected with 400.
	Partitions int `json:"partitions,omitempty"`
	// Objective switches the request into portfolio mode: the response
	// carries the Pareto frontier of the race plus the winner under this
	// objective ("min_makespan", "min_memory", "makespan_under_memcap:F",
	// "memory_under_deadline:D", "weighted:A"). Optional on /v1/schedule
	// and batch lines; defaults to min_makespan on /v1/portfolio and when
	// Auto is selected.
	Objective *portfolio.Objective `json:"objective,omitempty"`
	// TimeoutMS tightens this request's time budget to the given number of
	// milliseconds from arrival. It can only shorten the budget the server
	// default (or the X-Timeout-Ms header) already imposes; an exhausted
	// budget answers 503 with error kind "deadline".
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Bounds carries the paper's bi-objective lower bounds for one instance.
type Bounds struct {
	// MakespanLB is max(total work / p, critical path).
	MakespanLB float64 `json:"makespan_lb"`
	// MemorySeq is M_seq, the paper's sequential memory reference: the
	// peak of the memory-optimal sequential postorder. It is near-optimal
	// but not a strict bound — the OptimalSequential heuristic (Liu's
	// exact traversal) can come in below it, i.e. memory_ratio < 1.
	MemorySeq int64 `json:"memory_seq"`
}

// HeuristicResult is the outcome of one heuristic on one tree.
type HeuristicResult struct {
	Heuristic  sched.HeuristicID `json:"heuristic"`
	Makespan   float64           `json:"makespan"`
	PeakMemory int64             `json:"peak_memory"`
	// MakespanRatio is Makespan / Bounds.MakespanLB (0 if the bound is 0).
	MakespanRatio float64 `json:"makespan_ratio"`
	// MemoryRatio is PeakMemory / Bounds.MemorySeq (0 if M_seq is 0).
	MemoryRatio float64 `json:"memory_ratio"`
	// Error is set when this heuristic failed on the instance (the other
	// results are still valid).
	Error string `json:"error,omitempty"`
	// Proven and ExploredNodes report the Exact candidate's search: a
	// proven-optimal makespan versus the best schedule its node budget
	// reached, and how many branch-and-bound nodes it explored. Absent on
	// heuristic results. PrunedNodes counts decision nodes cut by the
	// lower bound and MemoHits those cut by dominance memoization.
	Proven        bool  `json:"proven,omitempty"`
	ExploredNodes int64 `json:"explored_nodes,omitempty"`
	PrunedNodes   int64 `json:"pruned_nodes,omitempty"`
	MemoHits      int64 `json:"memo_hits,omitempty"`
}

// Response is the answer to one Request. In batch mode a line-level
// failure is reported as a Response with only ID, RequestID and Error
// set.
type Response struct {
	ID string `json:"id,omitempty"`
	// RequestID is the server-assigned id of this answer — the
	// X-Request-Id header value, or "<batch-id>.<line>" for batch lines.
	// It keys the flight recorder and /metrics exemplars.
	RequestID  string `json:"request_id,omitempty"`
	TreeHash   string `json:"tree_hash,omitempty"`
	Nodes      int    `json:"nodes,omitempty"`
	Processors int    `json:"p,omitempty"`
	// Machine echoes the canonical machine spec on heterogeneous requests
	// (absent on the uniform machine).
	Machine string            `json:"machine,omitempty"`
	Bounds  *Bounds           `json:"bounds,omitempty"`
	Results []HeuristicResult `json:"results,omitempty"`
	// Objective, Frontier and Winner are set in portfolio mode: Frontier
	// lists the Pareto-optimal heuristics in ascending-makespan order and
	// Winner is the candidate Objective selected (absent when every
	// candidate failed).
	Objective *portfolio.Objective `json:"objective,omitempty"`
	Frontier  []sched.HeuristicID  `json:"frontier,omitempty"`
	Winner    *sched.HeuristicID   `json:"winner,omitempty"`
	// Cached reports that the response was served from the LRU cache.
	Cached bool `json:"cached,omitempty"`
	// Trace is the request's stage span tree, present only when the
	// request opted in via ?trace=1 (or treesched -trace). Traces are
	// never cached: a cache hit reports the hit's own spans.
	Trace *obs.SpanNode `json:"trace,omitempty"`
	// Timeline is the winner's schedule (the first successful one on a
	// plain request) rendered as Chrome Trace Event Format JSON, present
	// only with ?timeline=1. Open it in Perfetto (ui.perfetto.dev) or
	// chrome://tracing. Timeline responses bypass the cache: the timeline
	// is rebuilt per request.
	Timeline json.RawMessage `json:"timeline,omitempty"`
	// Degraded names the quality reductions overload protection applied to
	// this answer, in the order they were taken: "portfolio_top3" or
	// "portfolio_single" (degradation ladder trimmed the race),
	// "exact_breaker" (circuit breaker skipped the Exact candidate),
	// "exact_scaled" (a short time budget shrank the Exact node budget).
	// Absent on full-quality answers; degraded answers are never cached.
	Degraded []string `json:"degraded,omitempty"`
	// Error is set instead of the result fields when the request itself
	// was invalid.
	Error string `json:"error,omitempty"`

	// errKind is Error's metrics classification (decode, limit,
	// cancelled, internal, deadline, shed); the flight recorder records it
	// alongside the message. Not serialized.
	errKind string
	// precompute is the Precompute-cache outcome of the request ("hit" or
	// "miss", empty when the cache is disabled or no scheduling ran);
	// handleOne surfaces it as the X-Precompute-Cache debug header. Like
	// errKind it is stamped per request on the shallow response copy, never
	// on a cached response object. Not serialized.
	precompute string
}

// X-Precompute-Cache header values (Response.precompute).
const (
	pcHit  = "hit"
	pcMiss = "miss"
)

// requestError is an invalid-request failure with an HTTP status.
type requestError struct {
	status int
	msg    string
}

func (e *requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) *requestError {
	return &requestError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errorClass maps a failed request to its HTTP status and errors_total
// kind: 413 for a request over a size limit (kind limit), otherwise 400 or
// the requestError's own status (kind decode).
func errorClass(err error) (status int, kind string) {
	status = http.StatusBadRequest
	var re *requestError
	if errors.As(err, &re) {
		status = re.status
	}
	if status == http.StatusRequestEntityTooLarge {
		return status, errKindLimit
	}
	return status, errKindDecode
}

// job is a validated, runnable request: the parsed tree plus the resolved
// scheduling options and the cache key identifying the result. A non-nil
// objective marks a portfolio job (the response carries the frontier and
// the winner).
type job struct {
	req       Request
	tree      *tree.Tree
	treeHash  string
	opts      sched.Options
	objective *portfolio.Objective
	cacheKey  string
	// pcKey keys the cross-request Precompute cache: the canonical tree
	// hash alone on the uniform machine (the per-tree context is
	// p-independent, so requests at any p share one entry), plus the
	// machine spec on heterogeneous requests.
	pcKey string
	// pcState records the Precompute-cache outcome of this job ("hit",
	// "miss", or empty when the cache is disabled); answerBytes copies it
	// to the response's precompute field.
	pcState string
	// trace is the request's span recorder (always pooled, never nil on
	// the worker path — the flight recorder retains its spans).
	trace *obs.Trace
	// timeline requests a Chrome-trace rendering of the winner's (or the
	// first successful) schedule; such jobs bypass the response cache.
	timeline bool
}

// parse decodes one raw JSON request and resolves it into a runnable job.
// The request's tree member is decoded straight from raw, under the
// MaxNodes cap, and only the other members go through encoding/json. Every
// failure is a *requestError (400, or 413 for a tree over MaxNodes); req
// holds whatever was decoded before it.
func (s *Server) parse(raw []byte, forcePortfolio bool, tr *obs.Trace) (req Request, j *job, err error) {
	did := tr.Start("decode", obs.RootSpan)
	carried, err := tree.DecodeEnvelope(raw, s.cfg.MaxNodes, &req)
	tr.End(did)
	if err != nil {
		return req, nil, badRequest("invalid request: %v", err)
	}
	if req.TimeoutMS < 0 {
		return req, nil, badRequest("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	t, err := carried.Tree()
	if err != nil {
		if errors.Is(err, tree.ErrTooLarge) {
			return req, nil, &requestError{status: http.StatusRequestEntityTooLarge, msg: err.Error()}
		}
		return req, nil, badRequest("%v", err)
	}
	if t.Len() == 0 {
		return req, nil, badRequest("tree is empty")
	}
	j, err = s.prepare(req, t, forcePortfolio, tr)
	return req, j, err
}

// prepare validates req against the server limits and resolves it, with
// its decoded tree t, into a runnable job. forcePortfolio puts the job in
// portfolio mode even without an explicit objective (the /v1/portfolio
// endpoint). A non-nil tr records the canonical-hash stage.
func (s *Server) prepare(req Request, t *tree.Tree, forcePortfolio bool, tr *obs.Trace) (*job, error) {
	p := req.Processors
	var mm *machine.Model
	if req.Machine != "" {
		var err error
		mm, err = machine.ParseSpec(req.Machine)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		if p != 0 && p != mm.P() {
			return nil, badRequest("p=%d conflicts with machine %q (%d processors)", p, req.Machine, mm.P())
		}
		p = mm.P()
		if mm.IsUniform() {
			// A uniform spec is just a processor count: fold it into p so
			// "machine":"4" and "p":4 produce identical responses and share
			// one cache entry.
			mm = nil
		}
	}
	if p < 1 {
		return nil, badRequest("p must be >= 1, got %d", p)
	}
	if p > s.cfg.MaxProcs {
		return nil, badRequest("p=%d exceeds limit %d", p, s.cfg.MaxProcs)
	}
	if req.Partitions != 0 && req.Partitions != 1 {
		return nil, badRequest("partitions=%d: the partitioned scheduler was removed; omit the field (0 and 1 select the sequential scheduler)", req.Partitions)
	}
	ids, obj, err := resolveSelection(req.Heuristics, req.Objective, forcePortfolio)
	if err != nil {
		return nil, err
	}
	opts := sched.Options{
		Processors:   p,
		Machine:      mm,
		Heuristics:   ids,
		MemCapFactor: req.MemCapFactor,
	}
	// The Exact pseudo-heuristic is resolved by the portfolio layer, so
	// validation sees the selection exactly as that layer will: with
	// Exact stripped. resolveSelection guarantees obj != nil whenever
	// Exact is selected, so a plain job never races it.
	vopts := opts
	if obj != nil {
		vopts.Heuristics = portfolio.WithoutExact(opts.Heuristics)
	}
	if err := vopts.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	hid := tr.Start("hash", obs.RootSpan)
	treeHash := t.CanonicalHash()
	tr.End(hid)
	j := &job{req: req, tree: t, treeHash: treeHash, opts: opts, objective: obj}
	j.cacheKey = cacheKey(j.treeHash, opts, obj)
	j.pcKey = treeHash
	if mm != nil {
		j.pcKey += "|m=" + mm.Spec()
	}
	return j, nil
}

// precomputeFor resolves the job's per-tree scheduling context through the
// cross-request Precompute cache: a hit skips Liu's DP and the rank builds
// entirely and records a "precompute_cached" span (value 1); a miss builds
// the context under the usual "precompute" span and offers it to the
// cache. With the cache disabled the context is built per request, as
// before this layer existed.
func (s *Server) precomputeFor(j *job, tr *obs.Trace) *sched.Precompute {
	if s.pcache != nil {
		if pc, ok := s.pcache.Get(j.pcKey); ok {
			pid := tr.Start("precompute_cached", obs.RootSpan)
			tr.SetValue(pid, 1)
			tr.End(pid)
			j.pcState = pcHit
			return pc
		}
		j.pcState = pcMiss
	}
	pid := tr.Start("precompute", obs.RootSpan)
	pc := sched.NewPrecompute(j.tree)
	tr.End(pid)
	if s.pcache != nil {
		s.pcache.Add(j.pcKey, pc)
	}
	return pc
}

// resolveSelection turns the wire-level heuristic selection into a
// runnable one: the Auto pseudo-heuristic expands in place into the
// default portfolio candidates (deduplicated), and an objective — explicit,
// implied by Auto or Exact, or forced by the /v1/portfolio endpoint —
// switches the job into portfolio mode with min_makespan as the default
// policy. An empty selection becomes the default portfolio candidates in
// portfolio mode and the paper's four heuristics otherwise.
func resolveSelection(ids []sched.HeuristicID, obj *portfolio.Objective, forcePortfolio bool) ([]sched.HeuristicID, *portfolio.Objective, error) {
	hasAuto, hasExact := false, false
	for _, id := range ids {
		if id == sched.IDAuto {
			hasAuto = true
		}
		if id == sched.IDExact {
			hasExact = true
		}
	}
	if hasAuto {
		seen := make(map[sched.HeuristicID]bool, len(ids)+len(portfolio.DefaultCandidates()))
		expanded := make([]sched.HeuristicID, 0, len(ids)+len(portfolio.DefaultCandidates()))
		add := func(id sched.HeuristicID) {
			if !seen[id] {
				seen[id] = true
				expanded = append(expanded, id)
			}
		}
		for _, id := range ids {
			if id == sched.IDAuto {
				for _, d := range portfolio.DefaultCandidates() {
					add(d)
				}
			} else {
				add(id)
			}
		}
		ids = expanded
	}
	if obj != nil {
		if err := obj.Validate(); err != nil {
			return nil, nil, badRequest("%v", err)
		}
	} else if hasAuto || hasExact || forcePortfolio {
		// Exact, like Auto, is the portfolio layer's to resolve: its
		// presence switches the job into portfolio mode.
		def := portfolio.MinMakespan()
		obj = &def
	}
	if len(ids) == 0 {
		if obj != nil {
			ids = portfolio.DefaultCandidates()
		} else {
			ids = sched.PaperHeuristics()
		}
	}
	return ids, obj, nil
}

// cacheKey identifies a (tree, options, objective) triple. Heuristic order
// matters for the Results order, so the selection is included in request
// order; the objective changes Frontier/Winner, so portfolio responses
// never alias plain ones.
func cacheKey(treeHash string, opts sched.Options, obj *portfolio.Objective) string {
	var b strings.Builder
	b.WriteString(treeHash)
	fmt.Fprintf(&b, "|p=%d", opts.Processors)
	if opts.Machine != nil {
		fmt.Fprintf(&b, "|m=%s", opts.Machine.Spec())
	}
	ids := opts.Heuristics
	b.WriteString("|h=")
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(id.String())
	}
	if needsCapFactor(ids) {
		fmt.Fprintf(&b, "|cap=%g", opts.MemCapFactor)
	}
	if obj != nil {
		b.WriteString("|obj=")
		b.WriteString(obj.String())
	}
	return b.String()
}

func needsCapFactor(ids []sched.HeuristicID) bool {
	for _, id := range ids {
		// The exact solver caps its search at MemCapFactor × M_seq too,
		// so its responses must not alias across factors.
		if id == sched.IDMemCapped || id == sched.IDMemCappedBooking || id == sched.IDExact {
			return true
		}
	}
	return false
}

// topCandidates is the degradation ladder's trim: the first n non-Exact
// candidates of ids, in selection order (selection order encodes the
// request's preference, and Exact is the most expensive candidate, so it
// is always the first casualty). A selection with no non-Exact candidate
// is returned unchanged — degrading to nothing would be an error, not a
// cheaper answer.
func topCandidates(ids []sched.HeuristicID, n int) []sched.HeuristicID {
	out := make([]sched.HeuristicID, 0, n)
	for _, id := range ids {
		if id == sched.IDExact {
			continue
		}
		out = append(out, id)
		if len(out) == n {
			break
		}
	}
	if len(out) == 0 {
		return ids
	}
	return out
}

// ctxErrResponse classifies a dead request context: an exhausted time
// budget answers 503 (the server was too slow — retryable), a client
// cancellation answers 400 (nobody is listening).
func (s *Server) ctxErrResponse(ctx context.Context, id string) (int, *Response) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.metrics.errDeadline.Inc()
		return http.StatusServiceUnavailable,
			&Response{ID: id, Error: "deadline exceeded: request time budget exhausted", errKind: errKindDeadline}
	}
	s.metrics.errCancelled.Inc()
	return http.StatusBadRequest, &Response{ID: id, Error: "request canceled", errKind: errKindCancelled}
}

// statusFor maps a response produced on the worker path to its HTTP
// status: deadline exhaustion is retryable (503), cancellation is the
// client's doing (400), everything else keeps the 200-with-error-body
// contract of the scheduling endpoints.
func statusFor(resp *Response) int {
	switch resp.errKind {
	case errKindDeadline:
		return http.StatusServiceUnavailable
	case errKindCancelled:
		return http.StatusBadRequest
	}
	return http.StatusOK
}

// safeRun is run with panic containment: on HTTP handler goroutines
// net/http limits a panic's blast radius to one connection, but pool
// workers have no such net, so a latent panic in the scheduling code must
// not take the whole daemon down with every in-flight request.
func (s *Server) safeRun(ctx context.Context, j *job) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.errInternal.Inc()
			resp = &Response{ID: j.req.ID, Error: fmt.Sprintf("internal error: panic during scheduling: %v", r), errKind: errKindInternal}
		}
	}()
	return s.run(ctx, j)
}

// run answers a job: its heuristics race through portfolio.RunPre, and the
// response carries every candidate in selection order, so responses are
// deterministic however wide the race ran. A job with an objective also
// gets the Pareto frontier and the objective-selected winner; a plain job
// is a race that selects nothing. Racing adds goroutines beyond the calling
// pool worker, but the extra width comes from the server-wide raceSlots
// budget (GOMAXPROCS slots shared by all jobs), so concurrent requests on a
// saturated pool degrade toward sequential sweeps instead of stacking
// GOMAXPROCS goroutines per worker.
func (s *Server) run(ctx context.Context, j *job) *Response {
	// Overload degradation, applied before any scheduling work. The ladder
	// trims an objective race's width (a plain job keeps its selection); the
	// circuit breaker skips the Exact candidate while proofs keep exhausting
	// their budget; a short remaining time budget shrinks the Exact node
	// budget so the search fits the deadline. Each action is named in the
	// response's degraded field, and degraded responses are never cached
	// (answerJob), so the cache stays canonical.
	opts := j.opts
	var degraded []string
	if s.ladder != nil && j.objective != nil {
		switch s.ladder.Level() {
		case resilience.DegradeTop3:
			if trimmed := topCandidates(opts.Heuristics, 3); len(trimmed) < len(opts.Heuristics) {
				opts.Heuristics = trimmed
				degraded = append(degraded, "portfolio_top3")
				s.metrics.degTop3.Inc()
			}
		case resilience.DegradeSingle:
			if trimmed := topCandidates(opts.Heuristics, 1); len(trimmed) < len(opts.Heuristics) {
				opts.Heuristics = trimmed
				degraded = append(degraded, "portfolio_single")
				s.metrics.degSingle.Inc()
			}
		}
	}
	exactNodes := s.cfg.ExactNodes
	exactGuarded := false
	if portfolio.HasExact(opts.Heuristics) {
		// Only strip Exact while other candidates remain: with Exact as
		// the sole selection, skipping it would answer nothing.
		if len(opts.Heuristics) > 1 && !s.breaker.Allow(time.Now().UnixNano()) {
			opts.Heuristics = portfolio.WithoutExact(opts.Heuristics)
			degraded = append(degraded, "exact_breaker")
			s.metrics.degBreaker.Inc()
		} else {
			// The breaker admitted this run (possibly as the half-open
			// probe); its outcome must be recorded below, or a probe slot
			// would leak and wedge the breaker half-open.
			exactGuarded = true
			if dl, ok := ctx.Deadline(); ok {
				if scaled := resilience.ScaleNodeBudget(exactNodes, time.Until(dl)); scaled < exactNodes {
					exactNodes = scaled
					degraded = append(degraded, "exact_scaled")
					s.metrics.degScale.Inc()
				}
			}
		}
	}
	// Non-blocking grab of up to candidates-1 extra slots: the pool worker
	// itself is the first lane of the race.
	lanes := 1
acquire:
	for lanes < len(opts.Heuristics) {
		select {
		case s.raceSlots <- struct{}{}:
			lanes++
		default:
			break acquire
		}
	}
	defer func() {
		for i := 1; i < lanes; i++ {
			<-s.raceSlots
		}
	}()
	// precomputeFor resolves the request's sched.Precompute — from the
	// cross-request cache on repeat trees, built on this worker otherwise —
	// so every candidate shares one traversal, depths and priority rankings,
	// and a hit costs zero Liu DPs. A hit's context may be bound to a
	// canonically-equal copy of the request's tree, so everything below
	// schedules pc's tree: the same aliasing the response cache performs on
	// the canonical hash.
	tr := j.trace
	pc := s.precomputeFor(j, tr)
	var obj portfolio.Objective // a plain job's race ignores its selection
	if j.objective != nil {
		obj = *j.objective
	}
	res, err := portfolio.RunPre(ctx, pc, obj, portfolio.Options{
		Options: opts, Parallelism: lanes, ExactNodes: exactNodes,
		Trace: tr, TraceParent: obs.RootSpan,
	})
	if exactGuarded {
		// An Exact run that proved optimality is a breaker success; a
		// budget exhaustion, failure, or a race that died before Exact
		// reported is a failure (the conservative reading — it keeps a
		// half-open probe from leaking when the race itself errors).
		ok := false
		if err == nil {
			for _, c := range res.Candidates {
				if c.ID == sched.IDExact {
					ok = c.Err == nil && c.Proven
				}
			}
		}
		s.breaker.Record(time.Now().UnixNano(), ok)
	}
	if err != nil {
		// A race that died because the request's context expired is a
		// deadline/cancel outcome, not an internal scheduling failure —
		// classify it so the error accounting matches what the client saw.
		if ctx.Err() != nil {
			_, eresp := s.ctxErrResponse(ctx, j.req.ID)
			return eresp
		}
		return &Response{ID: j.req.ID, Error: err.Error()}
	}
	resp := &Response{
		ID:         j.req.ID,
		TreeHash:   j.treeHash,
		Nodes:      j.tree.Len(),
		Processors: res.Processors,
		Bounds:     &Bounds{MakespanLB: res.MakespanLB, MemorySeq: res.MemorySeq},
		Results:    make([]HeuristicResult, 0, len(res.Candidates)),
		Degraded:   degraded,
	}
	if res.Machine != nil {
		resp.Machine = res.Machine.Spec()
	}
	shown := -1 // the candidate a timeline renders
	for i, c := range res.Candidates {
		hr := HeuristicResult{Heuristic: c.ID, Proven: c.Proven,
			ExploredNodes: c.Explored, PrunedNodes: c.Pruned, MemoHits: c.MemoHits}
		if c.Err != nil {
			hr.Error = c.Err.Error()
		} else {
			hr.Makespan = c.Makespan
			hr.PeakMemory = c.PeakMemory
			hr.MakespanRatio = c.MakespanRatio
			hr.MemoryRatio = c.MemoryRatio
			s.metrics.peakMemory.Observe(c.PeakMemory)
			s.metrics.candDur.With(c.ID.String()).Observe(c.Elapsed.Nanoseconds())
			if shown < 0 {
				shown = i
			}
		}
		resp.Results = append(resp.Results, hr)
	}
	if j.objective != nil {
		resp.Objective = j.objective
		resp.Frontier = make([]sched.HeuristicID, 0, len(res.Frontier))
		for _, i := range res.Frontier {
			resp.Frontier = append(resp.Frontier, res.Candidates[i].ID)
		}
		shown = res.Winner
		if w, ok := res.WinnerCandidate(); ok {
			id := w.ID
			resp.Winner = &id
			s.metrics.wins.With(id.String()).Inc()
		}
	}
	if j.timeline && shown >= 0 {
		resp.Timeline = renderTimeline(pc, j.opts, res.Candidates[shown].ID, res.MemorySeq)
	}
	return resp
}

// renderTimeline renders candidate id's schedule as Chrome Trace Event
// Format JSON for the Response.Timeline field, with the capped
// heuristics' budget (factor × M_seq) as the memory counter's cap series.
// The race only keeps candidate metrics, so the candidate is re-run
// deterministically on pc's tree (a canonically-equal copy of the
// request's on a Precompute-cache hit). Exact's schedule is not
// re-derivable through the heuristic interface, so its timeline is
// omitted, and a failure drops the timeline rather than the response.
func renderTimeline(pc *sched.Precompute, opts sched.Options, id sched.HeuristicID, memSeq int64) json.RawMessage {
	if id == sched.IDExact {
		return nil
	}
	opts.Heuristics = []sched.HeuristicID{id}
	hs, _, err := opts.SelectPre(pc)
	if err != nil {
		return nil
	}
	sc, err := hs[0].RunOn(pc.Tree(), opts.Model())
	if err != nil {
		return nil
	}
	var memCap int64
	if opts.MemCapFactor > 0 {
		memCap = int64(opts.MemCapFactor * float64(memSeq))
	}
	var buf bytes.Buffer
	if err := sched.WriteChromeTrace(&buf, pc.Tree(), sc, sched.ChromeTraceOptions{Name: id.String(), MemCap: memCap}); err != nil {
		return nil
	}
	return buf.Bytes()
}

// cached returns a personalized copy of j's cached response, counting the
// hit or miss.
func (s *Server) cached(j *job) (*Response, bool) {
	if s.cache == nil {
		return nil, false
	}
	c, ok := s.cache.get(j.cacheKey)
	if !ok {
		s.metrics.cacheMisses.Inc()
		return nil, false
	}
	s.metrics.cacheHits.Inc()
	resp := *c // shallow copy; Results are shared and read-only
	resp.ID = j.req.ID
	resp.Cached = true
	return &resp, true
}

// answerJob schedules j on the calling goroutine — which must be a pool
// worker — and caches the result. Jobs whose client has gone away by the
// time a worker picks them up are skipped rather than computed for nobody.
func (s *Server) answerJob(ctx context.Context, j *job) *Response {
	if ctx.Err() != nil {
		_, resp := s.ctxErrResponse(ctx, j.req.ID)
		return resp
	}
	// Dedup re-check: a concurrent identical request may have finished
	// while this one waited for a worker. Bypasses the hit/miss counters —
	// this lookup is an internal optimization, not a client-visible miss.
	// Timeline jobs bypass the cache both ways: cached responses carry no
	// timeline, and a per-request rendering must not be shared.
	if s.cache != nil && !j.timeline {
		if c, ok := s.cache.get(j.cacheKey); ok {
			resp := *c
			resp.ID = j.req.ID
			resp.Cached = true
			return &resp
		}
	}
	resp := s.safeRun(ctx, j)
	// A job aborted by its context mid-run was not scheduled — it already
	// counted against errors_total{deadline|cancelled}, and counting it
	// here too would break the admitted = scheduled + aborted accounting
	// the chaos suite checks.
	if resp.errKind != errKindCancelled && resp.errKind != errKindDeadline {
		s.metrics.trees.Inc()
	}
	// Degraded responses are never cached: they answer with reduced
	// quality under the moment's pressure, and a cache entry would keep
	// serving that reduced answer after the pressure is gone.
	if s.cache != nil && !j.timeline && resp.Error == "" && len(resp.Degraded) == 0 {
		s.cache.add(j.cacheKey, resp)
	}
	return resp
}
