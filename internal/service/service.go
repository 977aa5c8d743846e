// Package service implements treeschedd, the scheduling-as-a-service HTTP
// layer over the treesched library: clients submit tree-shaped task graphs
// as JSON and receive, per selected heuristic, the makespan, the simulated
// peak memory and the paper's bi-objective lower bounds.
//
// # Endpoints
//
//   - POST /v1/schedule — one JSON Request, one JSON Response.
//   - POST /v1/schedule/batch — newline-delimited JSON (NDJSON): one
//     Request per line, one Response per line, in input order. Lines are
//     pipelined through the worker pool, so arbitrarily long batches
//     stream without being buffered whole. A malformed or invalid line
//     yields an error Response for that line only; a line exceeding
//     Config.MaxBodyBytes cannot be framed past, so it terminates the
//     batch with a final error line noting that the remainder was
//     dropped.
//   - POST /v1/portfolio — one Request whose heuristics (default: the
//     paper's four plus the Sequential baseline) race concurrently over
//     the tree; the Response carries every candidate, the Pareto frontier
//     of (makespan, peak memory), and the winner under the request's
//     objective (default min_makespan). The same portfolio semantics are
//     reachable on /v1/schedule and batch lines via the "objective" field
//     or the "Auto" pseudo-heuristic.
//   - POST /v1/forest — an NDJSON job trace (tree + arrival + weight +
//     per-job objective per line) simulated on one shared machine under a
//     global memory cap by the internal/forest engine: per-job results in
//     trace order followed by a {"summary":...} line. Machine size,
//     admission policy and cap come from query parameters.
//   - GET /healthz — liveness probe with uptime and pool size.
//   - GET /readyz — readiness probe: 503 while the admission controller
//     is shedding or shutdown has begun, 200 otherwise, so a load
//     balancer drains an overloaded node instead of feeding it.
//   - GET /metrics — Prometheus-style text metrics: request counts per
//     endpoint, scheduled-tree count, cache hits/misses and hit ratio,
//     in-flight jobs, errors, admission/degradation/breaker state.
//
// # Shape
//
// Scheduling is CPU-bound, so all scheduling work runs on a bounded worker
// pool (Config.Workers goroutines) rather than on the unbounded HTTP
// handler goroutines; the pool applies backpressure when saturated. Every
// job, plain or portfolio, races its heuristics through portfolio.RunPre
// on its worker plus whatever extra lanes the server-wide race budget
// (GOMAXPROCS slots) has free.
// Results are cached in an LRU keyed by the tree's canonical hash plus all
// scheduling parameters, so a repeated submission is answered without
// rescheduling. Requests are size-limited (Config.MaxBodyBytes,
// Config.MaxNodes) and malformed or oversized payloads are rejected with
// JSON error objects. Responses are deterministic: identical requests
// produce identical result sets whether computed or cached, concurrent or
// not.
//
// # Overload behavior
//
// The service degrades instead of queueing unboundedly (the
// internal/resilience package). Every CPU-bound request passes a bounded
// admission window with CoDel-style queue-delay shedding: when dequeue
// waits exceed Config.QueueTarget for a sustained interval, new arrivals
// are shed with 503 + Retry-After — batch lines first, single requests
// only while the window is still half full. Requests carry a time budget
// (Config.RequestTimeout, the X-Timeout-Ms header, or the per-request
// timeout_ms field — the tightest wins) propagated as a context deadline
// through every stage; an exhausted budget answers 503 with error kind
// "deadline". Under measured pressure, portfolio requests step down a
// degradation ladder (full race → top-3 → single heuristic), the Exact
// candidate is guarded by a circuit breaker, and its node budget is
// scaled to the remaining time budget; every degraded response names what
// was skipped in its "degraded" field and is never cached.
package service

import (
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"treesched/internal/resilience"
	"treesched/internal/resilience/chaos"
	"treesched/internal/sched"
)

// Defaults for Config fields left zero.
const (
	DefaultCacheSize    = 1024
	DefaultMaxBodyBytes = 8 << 20 // 8 MiB per request (or per batch line)
	DefaultMaxNodes     = 1_000_000
	DefaultMaxProcs     = 4096
	// DefaultPrecomputeCacheBytes budgets the cross-request Precompute
	// cache: repeated trees skip Liu's DP and the priority-rank builds.
	// 64 MiB holds hundreds of mid-size trees or a handful of 10⁵-node
	// ones; entries are admission-weighted so one giant tree cannot flush
	// the working set.
	DefaultPrecomputeCacheBytes = 64 << 20
	// DefaultExactNodes is the per-request node budget of the Exact
	// portfolio candidate: large enough to prove optimality on
	// oracle-sized trees, small enough that a pool worker answers in
	// well under a second even when the proof does not close.
	DefaultExactNodes = 200_000
	// Flight recorder defaults: retain up to 256 requests, always keep
	// anything slower than 250ms or failed, and 1 in 16 of the rest.
	DefaultFlightSize        = 256
	DefaultFlightSlow        = 250 * time.Millisecond
	DefaultFlightSampleEvery = 16
	// DefaultBatchWriteTimeout is the per-response-line write deadline of
	// the batch endpoint: generous enough for any reading client, finite
	// so a client that stops reading cannot pin handler goroutines
	// forever.
	DefaultBatchWriteTimeout = 2 * time.Minute
	// DefaultQueueDepthPerWorker sizes the admission window at
	// Workers × this: deep enough that bursts and batch lookahead never
	// brush it, shallow enough that a saturated pool sheds instead of
	// growing an unbounded queue.
	DefaultQueueDepthPerWorker = 16
	// DefaultQueueTarget is the acceptable queue sojourn: dequeue waits
	// persistently above it for twice this long start an overload episode.
	DefaultQueueTarget = 100 * time.Millisecond
	// DefaultDegradeLight and DefaultDegradeHeavy are the smoothed
	// queue-delay thresholds at which portfolio requests step down to the
	// top-3 candidates and to a single heuristic.
	DefaultDegradeLight = 250 * time.Millisecond
	DefaultDegradeHeavy = time.Second
	// DefaultBreakerFailures consecutive Exact budget exhaustions trip the
	// candidate's circuit breaker open for DefaultBreakerCooldown.
	DefaultBreakerFailures = 5
	DefaultBreakerCooldown = 10 * time.Second
)

// Goroutine-count floors of the degradation ladder: out-of-band telemetry
// that raises the ladder level even when queue delay looks healthy (e.g.
// handler goroutines piling up on slow clients rather than on the pool).
const (
	goroutineFloorLight = 2048
	goroutineFloorHeavy = 8192
)

// Config parameterizes a Server. The zero value is usable: every field
// falls back to a sensible default.
type Config struct {
	// Workers is the size of the scheduling worker pool.
	// Default: GOMAXPROCS.
	Workers int
	// CacheSize is the number of LRU-cached responses. 0 means
	// DefaultCacheSize; negative disables caching.
	CacheSize int
	// PrecomputeCacheBytes budgets the cross-request Precompute cache in
	// bytes (per-tree scheduling context keyed by canonical tree hash and
	// machine spec). 0 means DefaultPrecomputeCacheBytes; negative
	// disables it.
	PrecomputeCacheBytes int64
	// MaxBodyBytes limits the size of a single request body, of each
	// line of a batch, and of a whole /v1/forest trace.
	// Default: DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxNodes rejects trees larger than this. Default: DefaultMaxNodes.
	MaxNodes int
	// MaxProcs rejects requests with p above this. Default: DefaultMaxProcs.
	MaxProcs int
	// MaxForestJobs rejects /v1/forest traces with more jobs than this.
	// Default: DefaultMaxForestJobs.
	MaxForestJobs int
	// ExactNodes is the branch-and-bound node budget of the Exact
	// portfolio candidate, per request. A server-side knob rather than a
	// wire field: budgets shape response latency, and a fixed budget
	// keeps the response cache coherent. Default: DefaultExactNodes.
	ExactNodes int64
	// SLOs are the per-endpoint service-level objectives: each one adds
	// the treeschedd_slo_* families for its endpoint and a burn-rate row
	// to /healthz. Empty disables the SLO layer.
	SLOs []SLO
	// FlightSize is the flight recorder's ring capacity in retained
	// requests. Default: DefaultFlightSize.
	FlightSize int
	// FlightSlow is the latency above which the flight recorder always
	// retains a request. Default: DefaultFlightSlow.
	FlightSlow time.Duration
	// FlightSampleEvery keeps one in N fast, successful requests as the
	// recorder's baseline sample (1 keeps everything).
	// Default: DefaultFlightSampleEvery.
	FlightSampleEvery int
	// Logger receives one structured record per request (request id,
	// endpoint, status, duration, error). nil disables request logging.
	// The flight recorder's on-demand dump (GET /debug/flight?dump=1)
	// writes through it too.
	Logger *slog.Logger
	// RequestTimeout is the server-side default time budget per request
	// (each batch line counts as one request). 0 disables the default;
	// clients can only tighten the budget, via the X-Timeout-Ms header or
	// the per-request timeout_ms field. An exhausted budget answers 503
	// with Retry-After and error kind "deadline".
	RequestTimeout time.Duration
	// BatchWriteTimeout is the per-response-line write deadline of the
	// batch endpoint. Default: DefaultBatchWriteTimeout.
	BatchWriteTimeout time.Duration
	// QueueDepth is the admission window: the maximum number of admitted,
	// not-yet-finished jobs before arrivals are shed with 503.
	// Default: DefaultQueueDepthPerWorker × Workers.
	QueueDepth int
	// QueueTarget is the acceptable queue sojourn of the CoDel-style
	// shedder; dequeue waits persistently above it begin an overload
	// episode. 0 means DefaultQueueTarget; negative disables delay-based
	// shedding (the QueueDepth bound still applies).
	QueueTarget time.Duration
	// DegradeLight and DegradeHeavy are the smoothed queue-delay
	// thresholds of the degradation ladder (portfolio full race → top-3 →
	// single heuristic). 0 means the defaults; a negative DegradeLight
	// disables the ladder.
	DegradeLight time.Duration
	DegradeHeavy time.Duration
	// BreakerFailures consecutive Exact budget exhaustions trip the
	// candidate's circuit breaker open for BreakerCooldown; a half-open
	// probe then restores it. Defaults: DefaultBreakerFailures,
	// DefaultBreakerCooldown.
	BreakerFailures int
	BreakerCooldown time.Duration
	// Chaos injects deterministic faults at the worker, batch-line and
	// cache sites (see internal/resilience/chaos). nil disables injection;
	// production runs leave it nil.
	Chaos *chaos.Injector
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.PrecomputeCacheBytes == 0 {
		c.PrecomputeCacheBytes = DefaultPrecomputeCacheBytes
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = DefaultMaxNodes
	}
	if c.MaxProcs <= 0 {
		c.MaxProcs = DefaultMaxProcs
	}
	if c.MaxForestJobs <= 0 {
		c.MaxForestJobs = DefaultMaxForestJobs
	}
	if c.ExactNodes <= 0 {
		c.ExactNodes = DefaultExactNodes
	}
	if c.FlightSize <= 0 {
		c.FlightSize = DefaultFlightSize
	}
	if c.FlightSlow <= 0 {
		c.FlightSlow = DefaultFlightSlow
	}
	if c.FlightSampleEvery <= 0 {
		c.FlightSampleEvery = DefaultFlightSampleEvery
	}
	if c.BatchWriteTimeout <= 0 {
		c.BatchWriteTimeout = DefaultBatchWriteTimeout
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepthPerWorker * c.Workers
	}
	if c.QueueTarget == 0 {
		c.QueueTarget = DefaultQueueTarget
	}
	if c.DegradeLight == 0 {
		c.DegradeLight = DefaultDegradeLight
	}
	if c.DegradeHeavy <= 0 {
		c.DegradeHeavy = DefaultDegradeHeavy
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = DefaultBreakerFailures
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	return c
}

// Server is the treeschedd scheduling service. Create one with New, mount
// Handler on an http.Server, and Close it after the http.Server has shut
// down.
type Server struct {
	cfg   Config
	pool  *pool
	cache *lruCache
	// pcache shares per-tree scheduling context (sched.Precompute) across
	// requests: a repeat tree skips Liu's DP and the rank builds even when
	// the response itself differs (other heuristics, objective, p).
	pcache  *sched.PrecomputeCache
	metrics *serverMetrics
	mux     *http.ServeMux
	started time.Time
	reqSeq  atomic.Uint64 // request-id source
	// raceSlots is the process-wide budget of extra goroutines a job's
	// race may add on top of its pool worker. Every schedule, portfolio
	// and batch-line job grabs as many free slots as it can use without
	// blocking, so an idle server races at full width while a saturated
	// one degrades to sequential sweeps instead of stacking GOMAXPROCS
	// goroutines per worker.
	raceSlots chan struct{}
	// adm, ladder and breaker are the overload controls (see the package
	// doc's Overload behavior section). ladder is nil when the degradation
	// ladder is disabled.
	adm     *resilience.Admission
	ladder  *resilience.Ladder
	breaker *resilience.Breaker
	// shuttingDown flips /readyz to 503 once BeginShutdown is called, so
	// the load balancer drains the node before http.Server.Shutdown stops
	// accepting.
	shuttingDown atomic.Bool
}

// New builds a Server from cfg (zero value for defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		pool:      newPool(cfg.Workers),
		started:   time.Now(),
		raceSlots: make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
	if cfg.CacheSize > 0 {
		s.cache = newLRUCache(cfg.CacheSize)
	}
	if cfg.PrecomputeCacheBytes > 0 {
		s.pcache = sched.NewPrecomputeCache(cfg.PrecomputeCacheBytes)
	}
	target := cfg.QueueTarget
	if target < 0 {
		// Delay-based shedding disabled: an unreachable target means only
		// the QueueDepth bound ever sheds.
		target = math.MaxInt64 / 4
	}
	s.adm = resilience.NewAdmission(resilience.AdmissionConfig{
		Capacity: cfg.QueueDepth,
		Target:   target,
	})
	if cfg.DegradeLight > 0 {
		s.ladder = resilience.NewLadder(resilience.LadderConfig{
			Light: cfg.DegradeLight,
			Heavy: cfg.DegradeHeavy,
			Floor: goroutineFloor,
		})
	}
	s.breaker = resilience.NewBreaker(resilience.BreakerConfig{
		Failures: cfg.BreakerFailures,
		Cooldown: cfg.BreakerCooldown,
	})
	s.metrics = newServerMetrics(s)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("POST /v1/schedule/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/portfolio", s.handlePortfolio)
	s.mux.HandleFunc("POST /v1/forest", s.handleForest)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/flight", s.handleFlight)
	return s
}

// goroutineFloor is the ladder's telemetry floor: goroutines piling up —
// slow clients holding handler goroutines, not pool queueing — raise the
// degradation level even while dequeue waits look healthy.
func goroutineFloor() int {
	switch g := runtime.NumGoroutine(); {
	case g >= goroutineFloorHeavy:
		return resilience.DegradeSingle
	case g >= goroutineFloorLight:
		return resilience.DegradeTop3
	}
	return resilience.DegradeNone
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the worker pool. Call only after all in-flight HTTP
// requests have completed (e.g. after http.Server.Shutdown returned).
func (s *Server) Close() { s.pool.close() }

// BeginShutdown flips /readyz to 503 so the load balancer stops routing
// here. Call it before http.Server.Shutdown: in-flight requests still
// complete, new probes see a draining node.
func (s *Server) BeginShutdown() { s.shuttingDown.Store(true) }

// Workers returns the size of the scheduling pool.
func (s *Server) Workers() int { return s.cfg.Workers }

// MetricFamilies returns the name of every registered metric family, in
// exposition order. treeschedd -list-metrics prints this list; the CI
// drift gate diffs it against a live /metrics scrape so no family can be
// registered without being covered by the end-to-end snapshot.
func (s *Server) MetricFamilies() []string { return s.metrics.reg.FamilyNames() }

// admit runs one admission decision of class pri and counts it in the
// treeschedd_admission_total family. Admitted decisions take a window
// slot, released by the submit wrapper when the job completes — so every
// admit must be followed by exactly one submit.
func (s *Server) admit(pri resilience.Priority) resilience.Decision {
	dec := s.adm.Admit(time.Now().UnixNano(), pri)
	s.metrics.admDecisions[dec].Inc()
	return dec
}

// submit hands f to the worker pool with the standard accounting: the job
// counts as in-flight from enqueue to completion, the time it spent
// waiting for a worker lands in the queue-wait histogram and feeds the
// shedder and the degradation ladder, and the job's admission-window slot
// is released at completion.
func (s *Server) submit(f func()) {
	s.metrics.inflight.Add(1)
	enqueued := time.Now()
	s.pool.submit(func() {
		wait := time.Since(enqueued)
		now := time.Now().UnixNano()
		s.metrics.queueWait.Observe(wait.Nanoseconds())
		s.adm.Observe(now, wait)
		if s.ladder != nil {
			s.ladder.Observe(now, wait)
		}
		defer s.metrics.inflight.Add(-1)
		defer s.adm.Done()
		f()
	})
}

// requestID returns a new process-unique request id for log correlation;
// it is also echoed to the client in the X-Request-Id header.
func (s *Server) requestID() string {
	return "r" + strconv.FormatUint(s.reqSeq.Add(1), 36)
}

// logRequest emits one structured record per request when a logger is
// configured.
func (s *Server) logRequest(rid, endpoint string, status int, elapsed time.Duration, errMsg string) {
	if s.cfg.Logger == nil {
		return
	}
	if errMsg != "" {
		s.cfg.Logger.Warn("request",
			"request_id", rid, "endpoint", endpoint, "status", status,
			"duration", elapsed, "error", errMsg)
		return
	}
	s.cfg.Logger.Info("request",
		"request_id", rid, "endpoint", endpoint, "status", status,
		"duration", elapsed)
}

// DebugHandler returns the opt-in debug mux: the net/http/pprof endpoints
// (/debug/pprof/...) plus the flight recorder (/debug/flight). It is a
// separate handler so debugging can be bound to a loopback-only listener
// while the service handler faces traffic; /debug/flight is additionally
// mounted on the service handler itself, since retained traces are the
// thing /metrics exemplars link to.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	return mux
}
