package service

import (
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"treesched/internal/obs"
	"treesched/internal/resilience"
	"treesched/internal/sched"
)

// Error kinds for the treeschedd_errors_total{kind} family. The unlabeled
// total is still exposed (sum of all kinds), so dashboards keyed on the
// bare counter keep working.
const (
	errKindDecode    = "decode"    // malformed JSON, invalid trees, bad parameters
	errKindLimit     = "limit"     // body/tree/trace size limits exceeded
	errKindCancelled = "cancelled" // client gone before or during scheduling
	errKindInternal  = "internal"  // panics and engine invariant failures
	errKindDeadline  = "deadline"  // request time budget exhausted
	errKindShed      = "shed"      // rejected by the admission controller
)

// serverMetrics is the service's metric set, built on the obs registry so
// every family reaches /metrics through one exposition writer. The record
// paths touch only pre-resolved children — atomic arithmetic, no maps, no
// allocation; per-heuristic children (wins, candidate durations) resolve
// through an RWMutex read lock on the portfolio path only.
type serverMetrics struct {
	reg *obs.Registry

	requests                                       *obs.CounterVec
	reqSchedule, reqBatch, reqPortfolio, reqForest *obs.Counter

	forestJobs, forestRejected    *obs.Counter
	forestRounds, forestBookRej   *obs.Counter
	trees, cacheHits, cacheMisses *obs.Counter

	errors                                         *obs.CounterVec
	errDecode, errLimit, errCancelled, errInternal *obs.Counter
	errDeadline, errShed                           *obs.Counter

	// admDecisions is indexed by resilience.Decision; degraded children
	// count ladder/breaker/budget degradations by action.
	admission                                *obs.CounterVec
	admDecisions                             [3]*obs.Counter
	degraded                                 *obs.CounterVec
	degTop3, degSingle, degBreaker, degScale *obs.Counter

	inflight atomic.Int64

	latency                                        *obs.HistogramVec
	latSchedule, latBatch, latPortfolio, latForest *obs.Histogram
	treeNodes, peakMemory, queueWait               *obs.Histogram

	wins    *obs.CounterVec
	candDur *obs.HistogramVec

	// flight is the tail-sampling ring behind GET /debug/flight; slos
	// holds one burn-rate tracker per configured endpoint objective.
	flight *obs.FlightRecorder
	slos   map[string]*sloState
}

// Endpoint paths, used as the label values of per-endpoint families.
const (
	epSchedule  = "/v1/schedule"
	epBatch     = "/v1/schedule/batch"
	epPortfolio = "/v1/portfolio"
	epForest    = "/v1/forest"
)

// newServerMetrics builds and registers every family. Registration order
// is exposition order: the families of the original flat-counter /metrics
// page come first (preserving their names and sample shapes exactly),
// then the histogram, portfolio and runtime families this layer added.
func newServerMetrics(s *Server) *serverMetrics {
	m := &serverMetrics{reg: obs.NewRegistry()}

	m.requests = obs.NewCounterVec("treeschedd_requests_total",
		"Requests received per endpoint.", "endpoint", false)
	m.reqSchedule = m.requests.With(epSchedule)
	m.reqBatch = m.requests.With(epBatch)
	m.reqPortfolio = m.requests.With(epPortfolio)
	m.reqForest = m.requests.With(epForest)

	m.forestJobs = obs.NewCounter("treeschedd_forest_jobs_total",
		"Jobs simulated by forest runs.")
	m.forestRejected = obs.NewCounter("treeschedd_forest_rejected_total",
		"Forest jobs rejected by admission.")
	m.trees = obs.NewCounter("treeschedd_trees_scheduled_total",
		"Trees scheduled (cache misses that ran the heuristics).")
	m.cacheHits = obs.NewCounter("treeschedd_cache_hits_total",
		"Responses served from the LRU cache.")
	m.cacheMisses = obs.NewCounter("treeschedd_cache_misses_total",
		"Cache lookups that missed.")
	cacheRatio := obs.NewGaugeFunc("treeschedd_cache_hit_ratio",
		"Hits / (hits + misses) since start.", func() float64 {
			hits, misses := m.cacheHits.Value(), m.cacheMisses.Value()
			if hits+misses == 0 {
				return 0
			}
			return float64(hits) / float64(hits+misses)
		})
	cacheEntries := obs.NewGaugeFunc("treeschedd_cache_entries",
		"Responses currently cached.", func() float64 {
			if s.cache == nil {
				return 0
			}
			return float64(s.cache.len())
		})
	inflight := obs.NewGaugeFunc("treeschedd_inflight_jobs",
		"Scheduling jobs running or queued on the pool.", func() float64 {
			return float64(m.inflight.Load())
		})

	// Cross-request Precompute cache. The counters read the cache's own
	// atomic-snapshot stats at scrape time (nil-safe: a disabled cache
	// reports zeros), so the request hot path pays nothing for them.
	pcacheStats := func() (st sched.PrecomputeCacheStats) {
		if s.pcache != nil {
			st = s.pcache.Stats()
		}
		return st
	}
	pcHits := obs.NewFuncCounter("treeschedd_precompute_cache_hits_total",
		"Scheduling requests whose per-tree Precompute came from the cross-request cache.",
		func() float64 { return float64(pcacheStats().Hits) })
	pcMisses := obs.NewFuncCounter("treeschedd_precompute_cache_misses_total",
		"Precompute cache lookups that built the per-tree context fresh.",
		func() float64 { return float64(pcacheStats().Misses) })
	pcEvictions := obs.NewFuncCounter("treeschedd_precompute_cache_evictions_total",
		"Precompute cache entries dropped for space (eviction storms included).",
		func() float64 { return float64(pcacheStats().Evictions) })
	pcBytes := obs.NewGaugeFunc("treeschedd_precompute_cache_bytes",
		"Resident bytes of the cross-request Precompute cache.",
		func() float64 { return float64(pcacheStats().Bytes) })

	m.errors = obs.NewCounterVec("treeschedd_errors_total",
		"Rejected requests and failed batch lines, by kind.", "kind", true)
	m.errDecode = m.errors.With(errKindDecode)
	m.errLimit = m.errors.With(errKindLimit)
	m.errCancelled = m.errors.With(errKindCancelled)
	m.errInternal = m.errors.With(errKindInternal)
	m.errDeadline = m.errors.With(errKindDeadline)
	m.errShed = m.errors.With(errKindShed)

	uptime := obs.NewGaugeFunc("treeschedd_uptime_seconds",
		"Seconds since the server started.", func() float64 {
			return time.Since(s.started).Seconds()
		})

	// Durations are recorded in nanoseconds and exposed in seconds:
	// 16 exponential buckets from 100µs to ~107s.
	durBounds := obs.ExpBuckets(100_000, 4, 16)
	m.latency = obs.NewHistogramVec("treeschedd_request_duration_seconds",
		"Request latency per endpoint.", "endpoint", 1e-9, durBounds)
	// Exemplars tie the worst observation per bucket window back to its
	// request id, which GET /debug/flight resolves to a full trace.
	m.latency.EnableExemplars(obs.DefaultExemplarWindow)
	m.latSchedule = m.latency.With(epSchedule)
	m.latBatch = m.latency.With(epBatch)
	m.latPortfolio = m.latency.With(epPortfolio)
	m.latForest = m.latency.With(epForest)
	m.queueWait = obs.NewHistogram("treeschedd_queue_wait_seconds",
		"Time jobs wait for a pool worker.", 1e-9, durBounds)
	m.treeNodes = obs.NewHistogram("treeschedd_tree_nodes",
		"Tree sizes of prepared requests, in nodes.", 1, obs.ExpBuckets(1, 4, 12))
	m.treeNodes.EnableExemplars(obs.DefaultExemplarWindow)
	m.peakMemory = obs.NewHistogram("treeschedd_peak_memory_units",
		"Simulated peak memory of produced schedules, in task-graph memory units.",
		1, obs.ExpBuckets(1, 8, 14))

	m.wins = obs.NewCounterVec("treeschedd_portfolio_wins_total",
		"Portfolio races won, per heuristic.", "heuristic", false)
	m.candDur = obs.NewHistogramVec("treeschedd_candidate_duration_seconds",
		"Per-candidate scheduling time (schedule plus evaluate) inside the race of every schedule, portfolio and batch-line job.", "heuristic",
		1e-9, obs.ExpBuckets(10_000, 4, 14))
	m.forestRounds = obs.NewCounter("treeschedd_forest_rounds_total",
		"Event-loop rounds executed by forest runs.")
	m.forestBookRej = obs.NewCounter("treeschedd_forest_booking_rejections_total",
		"Forest admission attempts deferred by the cross-tree booking invariant.")

	goroutines := obs.NewGaugeFunc("treeschedd_goroutines",
		"Goroutines at scrape time.", func() float64 {
			return float64(runtime.NumGoroutine())
		})
	heap := obs.NewGaugeFunc("treeschedd_heap_alloc_bytes",
		"Heap bytes allocated and in use at scrape time.", func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	gcPause := obs.NewFuncCounter("treeschedd_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time.", func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.PauseTotalNs) / 1e9
		})
	buildInfo := obs.NewConstGauge("treeschedd_build_info",
		"Build information; the labels carry the values.",
		[][2]string{{"version", buildVersion()}, {"go", runtime.Version()}}, 1)

	m.flight = obs.NewFlightRecorder(s.cfg.FlightSize, s.cfg.FlightSlow, s.cfg.FlightSampleEvery)
	flightSeen := obs.NewFuncCounter("treeschedd_flight_seen_total",
		"Requests offered to the flight recorder.", func() float64 {
			return float64(m.flight.Seen())
		})
	flightKept := obs.NewFuncCounter("treeschedd_flight_kept_total",
		"Requests retained by the flight recorder (errors, slow requests, 1-in-N sample).",
		func() float64 {
			return float64(m.flight.Kept())
		})

	m.admission = obs.NewCounterVec("treeschedd_admission_total",
		"Admission decisions, by outcome (admitted, shed_queue_full, shed_overload).",
		"decision", false)
	for d := resilience.Admitted; d <= resilience.ShedOverload; d++ {
		m.admDecisions[d] = m.admission.With(d.String())
	}
	m.degraded = obs.NewCounterVec("treeschedd_degraded_total",
		"Requests answered degraded, by action taken.", "action", false)
	m.degTop3 = m.degraded.With("portfolio_top3")
	m.degSingle = m.degraded.With("portfolio_single")
	m.degBreaker = m.degraded.With("exact_breaker")
	m.degScale = m.degraded.With("exact_scaled")
	shedding := obs.NewGaugeFunc("treeschedd_admission_shedding",
		"1 while the admission controller is in an overload episode.", func() float64 {
			if s.adm.Shedding() {
				return 1
			}
			return 0
		})
	breakerState := obs.NewGaugeFunc("treeschedd_breaker_state",
		"Exact-candidate circuit breaker state (0 closed, 1 open, 2 half-open).",
		func() float64 {
			return float64(s.breaker.State())
		})
	breakerOpens := obs.NewFuncCounter("treeschedd_breaker_opens_total",
		"Times the Exact-candidate circuit breaker tripped open.", func() float64 {
			return float64(s.breaker.Opens())
		})

	m.reg.Register(
		m.requests, m.forestJobs, m.forestRejected, m.trees,
		m.cacheHits, m.cacheMisses, cacheRatio, cacheEntries,
		pcHits, pcMisses, pcEvictions, pcBytes, inflight,
		m.errors, uptime,
		m.latency, m.queueWait, m.treeNodes, m.peakMemory,
		m.wins, m.candDur, m.forestRounds, m.forestBookRej,
		goroutines, heap, gcPause, buildInfo,
		flightSeen, flightKept,
		m.admission, m.degraded, shedding, breakerState, breakerOpens,
	)
	m.slos = newSLOStates(s.cfg.SLOs, m.reg)
	return m
}

// recordOutcome is the shared end-of-request bookkeeping: the flight
// recorder gets the outcome with its span tree, and the endpoint's SLO
// (when configured) classifies it. tr may be nil (no spans retained).
func (m *serverMetrics) recordOutcome(info obs.FlightInfo, tr *obs.Trace) {
	m.flight.Record(info, tr)
	if st := m.slos[info.Endpoint]; st != nil {
		st.record(info.Status, info.Duration)
	}
}

// flightInfoFor summarizes one finished single-request outcome for the
// flight recorder. resp may be nil (nothing was produced).
func flightInfoFor(rid, endpoint string, status int, elapsed time.Duration, resp *Response) obs.FlightInfo {
	info := obs.FlightInfo{
		RequestID: rid,
		Endpoint:  endpoint,
		Status:    status,
		Duration:  elapsed,
	}
	if resp == nil {
		return info
	}
	info.Error = resp.Error
	info.ErrorKind = resp.errKind
	info.Cached = resp.Cached
	info.Machine = resp.Machine
	info.Nodes = resp.Nodes
	info.Degraded = strings.Join(resp.Degraded, ",")
	switch {
	case resp.Winner != nil:
		info.Heuristic = resp.Winner.String()
	case len(resp.Results) == 1:
		info.Heuristic = resp.Results[0].Heuristic.String()
	}
	return info
}

// buildVersion resolves the module version baked into the binary;
// unversioned source builds report "dev".
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "dev"
}
