// Command treeschedd serves the treesched library over HTTP: clients POST
// tree task graphs as JSON and receive per-heuristic makespan, simulated
// peak memory and the paper's lower bounds. See internal/service for the
// API and README.md for curl examples.
//
// Usage:
//
//	treeschedd -addr :8080
//	treeschedd -addr :8080 -workers 16 -cache 4096 -max-body 16777216
//	treeschedd -addr :8080 -log json                   # structured request logs on stderr
//	treeschedd -addr :8080 -debug-addr 127.0.0.1:6060  # net/http/pprof, loopback only
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"treesched/internal/resilience/chaos"
	"treesched/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "scheduling worker pool size (default GOMAXPROCS)")
		cacheSize = flag.Int("cache", service.DefaultCacheSize, "LRU result cache entries (negative disables)")
		pcBytes   = flag.Int64("precompute-cache-bytes", service.DefaultPrecomputeCacheBytes, "byte budget of the cross-request Precompute cache (negative disables)")
		maxBody   = flag.Int64("max-body", service.DefaultMaxBodyBytes, "max request body / batch line bytes")
		maxNodes  = flag.Int("max-nodes", service.DefaultMaxNodes, "max tree size in nodes")
		maxProcs  = flag.Int("max-procs", service.DefaultMaxProcs, "max processor count per request")
		drain     = flag.Duration("drain", 30*time.Second, "graceful shutdown timeout")
		logMode   = flag.String("log", "text", "per-request structured logs on stderr: text|json|off")
		debugAddr = flag.String("debug-addr", "", "optional listen address for the debug mux (net/http/pprof + /debug/flight); keep it loopback-only")

		flightSize   = flag.Int("flight-size", service.DefaultFlightSize, "flight recorder ring capacity (retained requests)")
		flightSlow   = flag.Duration("flight-slow", service.DefaultFlightSlow, "latency above which the flight recorder always keeps a request")
		flightSample = flag.Int("flight-sample", service.DefaultFlightSampleEvery, "keep 1 in N fast successful requests in the flight recorder")
		listMetrics  = flag.Bool("list-metrics", false, "print every registered metric family name and exit")

		timeout         = flag.Duration("timeout", 0, "server-side time budget per request (0 = none); exhausted budgets answer 503")
		batchWrite      = flag.Duration("batch-write-timeout", service.DefaultBatchWriteTimeout, "per-response-line write deadline of the batch endpoint (must be > 0)")
		queueDepth      = flag.Int("queue-depth", 0, "admission window: max admitted unfinished jobs (default 16×workers)")
		queueTarget     = flag.Duration("queue-target", service.DefaultQueueTarget, "acceptable queue sojourn before shedding begins (negative disables delay shedding)")
		breakerFailures = flag.Int("breaker-failures", service.DefaultBreakerFailures, "consecutive Exact budget exhaustions that trip its circuit breaker")
		breakerCooldown = flag.Duration("breaker-cooldown", service.DefaultBreakerCooldown, "how long the Exact breaker stays open before a half-open probe")
		chaosSpec       = flag.String("chaos", "", "deterministic fault injection spec, e.g. seed=42,latency=0.5:5ms,panic=0.1,cancel=0.05,evict=0.2 (testing only)")
	)
	var slos sloFlags
	flag.Var(&slos, "slo", "per-endpoint SLO as endpoint:latency:objective, e.g. /v1/schedule:250ms:99.9 (repeatable; latency 0 = availability-only)")
	flag.Parse()

	if *batchWrite <= 0 {
		fmt.Fprintf(os.Stderr, "treeschedd: bad -batch-write-timeout %s (must be > 0)\n", *batchWrite)
		os.Exit(2)
	}
	injector, err := chaos.Parse(*chaosSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "treeschedd: bad -chaos: %v\n", err)
		os.Exit(2)
	}
	if injector != nil {
		log.Printf("treeschedd: CHAOS INJECTION ACTIVE (%s) — testing only", injector)
	}

	var logger *slog.Logger
	switch *logMode {
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "treeschedd: bad -log %q (want text, json or off)\n", *logMode)
		os.Exit(2)
	}

	svc := service.New(service.Config{
		Workers:              *workers,
		CacheSize:            *cacheSize,
		PrecomputeCacheBytes: *pcBytes,
		MaxBodyBytes:         *maxBody,
		MaxNodes:             *maxNodes,
		MaxProcs:             *maxProcs,
		SLOs:                 slos,
		FlightSize:           *flightSize,
		FlightSlow:           *flightSlow,
		FlightSampleEvery:    *flightSample,
		Logger:               logger,
		RequestTimeout:       *timeout,
		BatchWriteTimeout:    *batchWrite,
		QueueDepth:           *queueDepth,
		QueueTarget:          *queueTarget,
		BreakerFailures:      *breakerFailures,
		BreakerCooldown:      *breakerCooldown,
		Chaos:                injector,
	})

	// -list-metrics prints the registered family names — the CI drift
	// gate diffs this list against a live /metrics scrape, so a family
	// can't be added without showing up in the snapshot the gate checks.
	if *listMetrics {
		for _, name := range svc.MetricFamilies() {
			fmt.Println(name)
		}
		return
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("treeschedd: listening on %s (workers=%d cache=%d)", *addr, svc.Workers(), *cacheSize)

	// The debug mux is a separate server so profiling can stay bound to
	// loopback while the service address faces traffic. A debug-server
	// failure is logged, not fatal: the daemon serves without profiling.
	if *debugAddr != "" {
		dsrv := &http.Server{
			Addr:              *debugAddr,
			Handler:           svc.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("treeschedd: debug mux (pprof) on %s", *debugAddr)
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("treeschedd: debug server: %v", err)
			}
		}()
		defer dsrv.Close()
	}

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "treeschedd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	log.Printf("treeschedd: shutting down (drain %s)", *drain)
	// Flip /readyz to 503 first so the load balancer stops routing here
	// while in-flight requests drain.
	svc.BeginShutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// Handlers may still be running (drain timed out), so closing the
		// worker pool is not safe; we are exiting anyway.
		if errors.Is(err, context.DeadlineExceeded) {
			log.Printf("treeschedd: drain timed out after %s; in-flight requests cut off", *drain)
		} else {
			log.Printf("treeschedd: shutdown: %v", err)
		}
	} else {
		svc.Close()
	}
	log.Printf("treeschedd: bye")
}

// sloFlags collects repeated -slo flags.
type sloFlags []service.SLO

func (f *sloFlags) String() string {
	parts := make([]string, len(*f))
	for i, s := range *f {
		parts[i] = s.String()
	}
	return strings.Join(parts, ",")
}

func (f *sloFlags) Set(v string) error {
	slo, err := service.ParseSLO(v)
	if err != nil {
		return err
	}
	*f = append(*f, slo)
	return nil
}
