package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"treesched/internal/obs"
	"treesched/internal/resilience"
	"treesched/internal/resilience/chaos"
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// rejectJSON rejects a request before it reaches the worker pool: it
// counts the rejection against kind, the pre-resolved errors_total{kind}
// child named kindName, and answers an error Response carrying the
// request id rid, which it returns for the caller's outcome bookkeeping.
func (s *Server) rejectJSON(w http.ResponseWriter, status int, kind *obs.Counter, kindName, rid, msg string) *Response {
	kind.Inc()
	resp := &Response{RequestID: rid, Error: msg, errKind: kindName}
	writeJSON(w, status, resp)
	return resp
}

// traceWanted reports whether the request opted into span tracing via
// ?trace=1.
func traceWanted(r *http.Request) bool {
	return boolParam(r, "trace")
}

// timelineWanted reports whether the request asked for a Perfetto
// timeline of the winning schedule via ?timeline=1.
func timelineWanted(r *http.Request) bool {
	return boolParam(r, "timeline")
}

func boolParam(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v == "1" || v == "true"
}

// requestTimeout resolves the request's server-side time budget: the
// configured default, tightened by an X-Timeout-Ms header (which can only
// shorten it — a client cannot buy more time than the server grants).
// 0 means no budget.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	to := s.cfg.RequestTimeout
	if v := r.Header.Get("X-Timeout-Ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms <= 0 {
			return 0, fmt.Errorf("bad X-Timeout-Ms %q (want a positive integer)", v)
		}
		if d := time.Duration(ms) * time.Millisecond; to == 0 || d < to {
			to = d
		}
	}
	return to, nil
}

// shedMessage is the error body of an admission rejection.
func shedMessage(dec resilience.Decision) string {
	if dec == resilience.ShedQueueFull {
		return "server overloaded: admission queue full, request shed"
	}
	return "server overloaded: queue delay over target, request shed"
}

// handleSchedule answers POST /v1/schedule: one JSON Request in, one JSON
// Response out. The handler goroutine only does I/O (reading the body,
// writing the response); all CPU work — parsing, validation, hashing,
// scheduling — runs on the bounded worker pool, exactly as in the batch
// endpoint, so per-connection goroutines cannot oversubscribe the CPU the
// pool is meant to bound.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	s.metrics.reqSchedule.Inc()
	s.handleOne(w, r, false, epSchedule, s.metrics.latSchedule)
}

// handlePortfolio answers POST /v1/portfolio: the same Request shape as
// /v1/schedule, but the selection defaults to the paper's four plus the
// Sequential baseline and the Response carries the Pareto frontier and the
// objective-selected winner. An absent objective defaults to min_makespan.
func (s *Server) handlePortfolio(w http.ResponseWriter, r *http.Request) {
	s.metrics.reqPortfolio.Inc()
	s.handleOne(w, r, true, epPortfolio, s.metrics.latPortfolio)
}

// handleOne is the shared single-request path: the handler goroutine only
// does I/O; parsing, validation, hashing and scheduling run on the bounded
// worker pool. With ?trace=1 the response carries the request's span tree
// in the trace field; with ?timeline=1 it carries the winner's schedule
// (the first successful one on a plain request) as Chrome-trace JSON.
// Every request is traced into the pooled span recorder regardless — the
// flight recorder retains the spans of kept requests — and finishes
// through the shared outcome bookkeeping (latency exemplar, flight record,
// SLO classification).
func (s *Server) handleOne(w http.ResponseWriter, r *http.Request, forcePortfolio bool, endpoint string, lat *obs.Histogram) {
	start := time.Now()
	rid := s.requestID()
	w.Header().Set("X-Request-Id", rid)
	tr := obs.AcquireTrace()
	finish := func(status int, resp *Response) {
		elapsed := time.Since(start)
		lat.ObserveExemplar(elapsed.Nanoseconds(), rid)
		s.metrics.recordOutcome(flightInfoFor(rid, endpoint, status, elapsed, resp), tr)
		tr.Release()
		s.logRequest(rid, endpoint, status, elapsed, resp.Error)
	}
	reject := func(status int, kind *obs.Counter, kindName, msg string) {
		finish(status, s.rejectJSON(w, status, kind, kindName, rid, msg))
	}
	timeout, terr := s.requestTimeout(r)
	if terr != nil {
		reject(http.StatusBadRequest, s.metrics.errDecode, errKindDecode, terr.Error())
		return
	}
	readSpan := tr.Start("read", obs.RootSpan)
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), min(r.ContentLength, s.cfg.MaxBodyBytes+1))
	tr.SetValue(readSpan, int64(len(body)))
	tr.End(readSpan)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			reject(http.StatusRequestEntityTooLarge, s.metrics.errLimit, errKindLimit, "request body exceeds limit")
			return
		}
		reject(http.StatusBadRequest, s.metrics.errDecode, errKindDecode, "reading request body: "+err.Error())
		return
	}
	// Admission sits between body read and submit: a shed costs the server
	// the network I/O (already paid by the client) but none of the
	// CPU-bound work the window protects.
	if dec := s.admit(resilience.PriorityHigh); dec != resilience.Admitted {
		w.Header().Set("Retry-After", "1")
		reject(http.StatusServiceUnavailable, s.metrics.errShed, errKindShed, shedMessage(dec))
		return
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	attachTrace, timeline := traceWanted(r), timelineWanted(r)
	type outcome struct {
		status int
		resp   *Response
	}
	ch := make(chan outcome, 1)
	s.submit(func() {
		status, resp := s.answerBytes(ctx, start, body, forcePortfolio, tr, attachTrace, timeline, rid)
		ch <- outcome{status, resp}
	})
	out := <-ch
	if out.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	// Debug header: did this request's scheduling context come from the
	// cross-request Precompute cache? Absent when no scheduling ran (errors,
	// response-cache hits) or the cache is disabled.
	if out.resp.precompute != "" {
		w.Header().Set("X-Precompute-Cache", out.resp.precompute)
	}
	writeJSON(w, out.status, out.resp)
	finish(out.status, out.resp)
}

// maxBodyAhead bounds how far readBody allocates ahead of the bytes it
// has received: a declared length above it is not trusted up front.
const maxBodyAhead = 1 << 20

// readBody reads a request body to its end. When its declared length n
// is known (n >= 0) and at most maxBodyAhead, the body goes into one
// buffer of that size; otherwise the buffer grows as io.ReadAll grows it.
// The buffer is the request's own, not pooled: the job keeps it after an
// alias hit.
func readBody(r io.Reader, n int64) ([]byte, error) {
	if n < 0 || n > maxBodyAhead {
		return io.ReadAll(r)
	}
	// ReadFrom reads while MinRead bytes are free, so the end of the body
	// is found without growing the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// handleBatch answers POST /v1/schedule/batch: NDJSON in, NDJSON out, one
// Response line per Request line, in input order. Lines are pipelined:
// a reader goroutine frames lines and dispatches them to the worker pool
// (which does all per-line work — parsing, validation, hashing,
// scheduling — so it parallelizes across workers) while this goroutine
// streams completed responses back; the batch is never buffered whole.
// The reader stays at most 2×Workers lines ahead of the writer (the
// `results` buffer), bounding memory for arbitrarily long batches.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := s.requestID()
	s.metrics.reqBatch.Inc()
	w.Header().Set("X-Request-Id", rid)
	timeout, terr := s.requestTimeout(r)
	if terr != nil {
		// Recorded like handleOne's rejections: a latency sample, a flight
		// entry and a log line for the batch as a whole.
		resp := s.rejectJSON(w, http.StatusBadRequest, s.metrics.errDecode, errKindDecode, rid, terr.Error())
		elapsed := time.Since(start)
		s.metrics.latBatch.ObserveExemplar(elapsed.Nanoseconds(), rid)
		s.metrics.recordOutcome(flightInfoFor(rid, epBatch, http.StatusBadRequest, elapsed, resp), nil)
		s.logRequest(rid, epBatch, http.StatusBadRequest, elapsed, resp.Error)
		return
	}
	// Go's HTTP/1 server discards the unread rest of a request body at the
	// handler's first response write unless full duplex is enabled; the
	// reader below is usually still framing lines when the first answer is
	// flushed, so without this the remaining lines would be lost. Recorders
	// and HTTP/2 do not support (or need) it, so the error is ignored.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")

	// Set by the writer when the client stops reading; makes the reader
	// quit instead of scheduling work nobody will receive.
	var clientGone atomic.Bool
	// The batch context is cancellable so the chaos injector can simulate
	// a mid-batch client disconnect.
	ctx, cancelBatch := context.WithCancel(r.Context())
	defer cancelBatch()

	var lines atomic.Int64
	results := make(chan chan *Response, 2*s.cfg.Workers)
	go func() {
		defer close(results)
		sc := bufio.NewScanner(r.Body)
		// bufio.Scanner's effective token limit is max(max, cap(buf)), so
		// the initial buffer must not exceed the configured line limit.
		// The +1 leaves room for the newline delimiter, making the limit
		// inclusive like the single endpoint's MaxBytesReader.
		bufCap := 64 << 10
		if int(s.cfg.MaxBodyBytes) < bufCap {
			bufCap = int(s.cfg.MaxBodyBytes)
		}
		sc.Buffer(make([]byte, 0, bufCap), int(s.cfg.MaxBodyBytes)+1)
		for sc.Scan() && !clientGone.Load() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			line = append([]byte(nil), line...) // sc.Bytes() is reused by the next Scan
			ch := make(chan *Response, 1)
			select {
			case results <- ch: // bounded lookahead: blocks when far ahead of the writer
			case <-ctx.Done(): // client disconnected while we waited
				return
			}
			lineRid := rid + "." + strconv.FormatInt(lines.Add(1), 10)
			// Batch lines are the low-priority admission class: the first
			// work shed under overload. A shed line costs one error line in
			// place, never a worker.
			if dec := s.admit(resilience.PriorityLow); dec != resilience.Admitted {
				s.metrics.errShed.Inc()
				resp := &Response{RequestID: lineRid, Error: shedMessage(dec), errKind: errKindShed}
				s.metrics.recordOutcome(flightInfoFor(lineRid, epBatch, http.StatusServiceUnavailable, 0, resp), nil)
				ch <- resp
				continue
			}
			if s.cfg.Chaos.At(chaos.SiteBatchLine).Kind == chaos.Cancel {
				cancelBatch()
			}
			arrival := time.Now()
			lineCtx := ctx
			var cancelLine context.CancelFunc
			if timeout > 0 {
				lineCtx, cancelLine = context.WithTimeout(ctx, timeout)
			}
			s.submit(func() {
				if cancelLine != nil {
					defer cancelLine()
				}
				ch <- s.answerLine(lineCtx, arrival, line, lineRid)
			})
		}
		if err := sc.Err(); err != nil {
			// Line framing cannot resync past an oversized or unreadable
			// line, so the remainder of the batch is dropped; the final
			// error line says so for clients correlating by position. It
			// carries the id of the line that failed to frame and is
			// recorded like any other line.
			lineRid := rid + "." + strconv.FormatInt(lines.Add(1), 10)
			status, kind := http.StatusBadRequest, errKindDecode
			if errors.Is(err, bufio.ErrTooLong) {
				status, kind = http.StatusRequestEntityTooLarge, errKindLimit
				s.metrics.errLimit.Inc()
			} else {
				s.metrics.errDecode.Inc()
			}
			resp := &Response{RequestID: lineRid, Error: "batch read: " + err.Error() + " (remaining batch lines dropped)", errKind: kind}
			s.metrics.recordOutcome(flightInfoFor(lineRid, epBatch, status, 0, resp), nil)
			ch := make(chan *Response, 1)
			ch <- resp
			results <- ch
		}
	}()

	// A per-line write deadline bounds how long a stalled-but-connected
	// client can pin this handler in Encode on TCP backpressure; a blown
	// deadline surfaces as a write error and aborts the batch.
	defer rc.SetWriteDeadline(time.Time{}) // don't leak the deadline into later keep-alive requests
	enc := json.NewEncoder(w)
	for ch := range results {
		resp := <-ch // must drain even after a write error, to unblock the reader
		if clientGone.Load() {
			continue
		}
		rc.SetWriteDeadline(time.Now().Add(s.cfg.BatchWriteTimeout))
		if err := enc.Encode(resp); err != nil {
			clientGone.Store(true)
			continue
		}
		rc.Flush()
	}
	elapsed := time.Since(start)
	s.metrics.latBatch.ObserveExemplar(elapsed.Nanoseconds(), rid)
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("request",
			"request_id", rid, "endpoint", epBatch, "status", http.StatusOK,
			"duration", elapsed, "lines", lines.Load())
	}
}

// answerLine answers one batch line; it is answerBytes without the HTTP
// status (batch lines carry errors in the response body, not the status).
// Portfolio mode is per-line: a line with an objective (or Auto) gets a
// frontier and a winner, a plain line only its results. Each line is its
// own observable request: it gets a derived request id
// ("<batch-id>.<line>", echoed in the NDJSON result line), its own
// flight-recorder entry with stage spans, and its own SLO classification
// against the batch endpoint.
// arrival is when the reader framed the line; the line's timeout_ms field
// counts from it.
func (s *Server) answerLine(ctx context.Context, arrival time.Time, line []byte, lineRid string) *Response {
	start := time.Now()
	tr := obs.AcquireTrace()
	status, resp := s.answerBytes(ctx, arrival, line, false, tr, false, false, lineRid)
	s.metrics.recordOutcome(flightInfoFor(lineRid, epBatch, status, time.Since(start), resp), tr)
	tr.Release()
	return resp
}

// answerBytes parses, validates and answers one raw JSON request. It runs
// on a pool worker, so the O(n) work (JSON decode, tree validation,
// canonical hashing, scheduling) parallelizes across the pool. Pool
// workers have no net/http panic net, so the whole path — decode included
// — is recover-protected here; a panic must cost one request, not the
// daemon.
//
// tr records the request's stage spans; the caller still owns it — it
// hands the trace to the flight recorder after the response is written,
// then releases it. The deferred block stamps the request id and, when
// attachTrace is set, the materialized span tree onto a shallow copy of
// the response (never onto the response itself — the cache shares
// response objects across requests, and an id or trace belongs to exactly
// one).
func (s *Server) answerBytes(ctx context.Context, arrival time.Time, raw []byte, forcePortfolio bool, tr *obs.Trace, attachTrace, timeline bool, rid string) (status int, resp *Response) {
	var j *job
	defer func() {
		if r := recover(); r != nil {
			s.metrics.errInternal.Inc()
			status = http.StatusInternalServerError
			resp = &Response{Error: fmt.Sprintf("internal error: panic handling request: %v", r), errKind: errKindInternal}
		}
		if resp != nil {
			r2 := *resp
			r2.RequestID = rid
			if j != nil {
				// Per-request like the id: the Precompute-cache outcome
				// belongs to this request, never to a shared cached response.
				r2.precompute = j.pcState
			}
			if attachTrace && tr != nil {
				// Left open on purpose: Tree() closes it at materialization
				// time, so the encode span covers building the wire response.
				tr.Start("encode", obs.RootSpan)
				r2.Trace = tr.Tree()
			}
			resp = &r2
		}
	}()
	// Chaos worker faults fire inside this recover scope, so an injected
	// panic costs one request — exactly like a real scheduling panic.
	switch f := s.cfg.Chaos.At(chaos.SiteWorker); f.Kind {
	case chaos.Latency:
		time.Sleep(f.Dur)
	case chaos.Panic:
		panic("chaos: injected worker panic")
	}
	if ctx.Err() != nil {
		return s.ctxErrResponse(ctx, "")
	}
	req, jb, err := s.parse(raw, forcePortfolio, tr)
	if err != nil {
		st, kind := errorClass(err)
		if kind == errKindLimit {
			s.metrics.errLimit.Inc()
		} else {
			s.metrics.errDecode.Inc()
		}
		// req.ID is echoed best-effort: it is populated whenever the id
		// field was decoded before the failure.
		return st, &Response{ID: req.ID, Error: err.Error(), errKind: kind}
	}
	if req.TimeoutMS > 0 {
		// The field can only tighten the surrounding budget: the nested
		// context keeps whichever deadline is earlier.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, arrival.Add(time.Duration(req.TimeoutMS)*time.Millisecond))
		defer cancel()
	}
	j = jb
	s.metrics.treeNodes.ObserveExemplar(int64(j.nodes), rid)
	// Stage boundary: the budget is re-checked between hash and cache so a
	// request that spent its whole budget parsing stops here.
	if ctx.Err() != nil {
		return s.ctxErrResponse(ctx, req.ID)
	}
	j.trace = tr
	j.timeline = timeline
	if !timeline {
		// One eviction-storm draw clears both caches: survivors must
		// recompute their Precompute and reschedule, and the chaos suite
		// asserts they stay byte-identical to an unfaulted run. The alias
		// cache survives, so a survivor whose alias hits decodes its tree
		// from the request bytes, and that path is held to the same bytes.
		if (s.cache != nil || s.pcache != nil) && s.cfg.Chaos.At(chaos.SiteCache).Kind == chaos.Evict {
			if s.cache != nil {
				s.cache.Purge()
			}
			if s.pcache != nil {
				s.pcache.Purge()
			}
		}
		cid := tr.Start("cache", obs.RootSpan)
		cresp, ok := s.cached(j)
		tr.End(cid)
		if ok {
			return http.StatusOK, cresp
		}
	}
	resp = s.answerJob(ctx, j)
	return statusFor(resp), resp
}

// handleHealthz answers GET /healthz. With SLOs configured the probe
// reports each objective's multi-window burn rates; any SLO burning in
// both windows degrades the reported status (the HTTP status stays 200 —
// the process is alive, the budget is what's suffering).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
		"workers":        s.cfg.Workers,
	}
	if len(s.metrics.slos) > 0 {
		nowNS := time.Now().UnixNano()
		rows := make([]sloHealth, 0, len(s.metrics.slos))
		for _, ep := range sortedSLOEndpoints(s.metrics.slos) {
			st := s.metrics.slos[ep]
			short, long, burning := st.burning(nowNS)
			rows = append(rows, sloHealth{
				Endpoint:   ep,
				Objective:  st.slo.Objective,
				LatencyMS:  float64(st.slo.Latency) / float64(time.Millisecond),
				BurnRate5m: short,
				BurnRate1h: long,
				Burning:    burning,
			})
			if burning {
				body["status"] = "degraded"
			}
		}
		body["slos"] = rows
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz answers GET /readyz: readiness, as opposed to /healthz's
// liveness. It returns 503 while the admission controller is in an
// overload episode or shutdown has begun, so a load balancer drains the
// node instead of feeding it work it would shed anyway. Like /healthz and
// /metrics it is answered on the handler goroutine and never passes
// through admission itself.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":    "ready",
		"occupancy": s.adm.Occupancy(),
		"capacity":  s.adm.Capacity(),
	}
	status := http.StatusOK
	switch {
	case s.shuttingDown.Load():
		body["status"] = "shutting_down"
		status = http.StatusServiceUnavailable
	case s.adm.Shedding():
		body["status"] = "shedding"
		status = http.StatusServiceUnavailable
	}
	if status != http.StatusOK {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, body)
}

func sortedSLOEndpoints(slos map[string]*sloState) []string {
	eps := make([]string, 0, len(slos))
	for ep := range slos {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	return eps
}

// handleMetrics answers GET /metrics: every family — counters, gauges,
// histograms — flows through the one obs registry writer, so each family
// has exactly one HELP/TYPE header and one format. Clients that accept
// the OpenMetrics media type (Prometheus with exemplar scraping on) get
// OpenMetrics 1.0 — same families, `# EOF` terminator, and exemplars on
// histogram bucket lines; everyone else gets classic text 0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if acceptsOpenMetrics(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		s.metrics.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.reg.WriteText(w)
}

// acceptsOpenMetrics reports whether the Accept header asks for the
// OpenMetrics exposition format. Plain substring matching suffices: the
// only clients sending the media type are scrapers that prefer it.
func acceptsOpenMetrics(accept string) bool {
	return strings.Contains(accept, "application/openmetrics-text")
}

// handleFlight answers GET /debug/flight: the flight recorder's retained
// entries, newest first, each with its outcome summary and stage spans.
// ?dump=1 additionally writes every entry through the structured logger
// (oldest first), putting the ring's contents into the log stream for
// postmortems collected off-box.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if boolParam(r, "dump") && s.cfg.Logger != nil {
		s.metrics.flight.Dump(s.cfg.Logger)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"seen":    s.metrics.flight.Seen(),
		"kept":    s.metrics.flight.Kept(),
		"entries": s.metrics.flight.Snapshot(),
	})
}
