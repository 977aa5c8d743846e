package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"treesched/internal/forest"
	"treesched/internal/machine"
	"treesched/internal/obs"
	"treesched/internal/resilience"
	"treesched/internal/resilience/chaos"
	"treesched/internal/sched"
	"treesched/internal/tree"
)

// DefaultMaxForestJobs bounds the number of jobs in one /v1/forest trace.
const DefaultMaxForestJobs = 10_000

// handleForest answers POST /v1/forest: an NDJSON job trace in the body
// (one forest.Job per line; blank lines and #-comments skipped), the
// machine configuration in query parameters, and an NDJSON response — one
// JobResult per trace job, in trace order, followed by a final
// {"summary":...} line. The whole trace is one simulation, so unlike
// /v1/schedule/batch the body is decoded strictly: a malformed line fails
// the request.
//
// Query parameters:
//
//   - p: shared machine size (default 4, capped by the server's MaxProcs)
//   - machine: explicit machine spec ("4", "2x1.0+2x0.5") for
//     heterogeneous processor speeds; overrides p (they must agree when
//     both are given)
//   - policy: admission policy — fifo (default), sjf, smallest_mseq,
//     weighted_fair
//   - mem_cap: absolute global memory cap
//   - mem_cap_factor: cap as a multiple of the trace's largest M_seq
//     (default 2), ignored when mem_cap is set
//   - default_heuristic: plans jobs that carry neither a heuristic nor an
//     objective (default ParSubtrees; Auto races the portfolio per job)
func (s *Server) handleForest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := s.requestID()
	s.metrics.reqForest.Inc()
	w.Header().Set("X-Request-Id", rid)
	tr := obs.AcquireTrace()
	finish := func(status int, errMsg, errKind string, res *forest.Result) {
		elapsed := time.Since(start)
		s.metrics.latForest.ObserveExemplar(elapsed.Nanoseconds(), rid)
		info := obs.FlightInfo{
			RequestID: rid, Endpoint: epForest, Status: status,
			Duration: elapsed, Error: errMsg, ErrorKind: errKind,
		}
		if res != nil {
			info.Nodes = res.Summary.Jobs
		}
		s.metrics.recordOutcome(info, tr)
		tr.Release()
		s.logRequest(rid, epForest, status, elapsed, errMsg)
	}
	cfg, err := forestConfigFromQuery(r.URL.Query(), s.cfg.MaxProcs)
	if err != nil {
		s.rejectJSON(w, http.StatusBadRequest, s.metrics.errDecode, errKindDecode, rid, err.Error())
		finish(http.StatusBadRequest, err.Error(), errKindDecode, nil)
		return
	}
	timeout, terr := s.requestTimeout(r)
	if terr != nil {
		s.rejectJSON(w, http.StatusBadRequest, s.metrics.errDecode, errKindDecode, rid, terr.Error())
		finish(http.StatusBadRequest, terr.Error(), errKindDecode, nil)
		return
	}
	// Forest runs are the heaviest single jobs the pool takes, so they
	// pass admission like every other CPU-bound request.
	if dec := s.admit(resilience.PriorityHigh); dec != resilience.Admitted {
		w.Header().Set("Retry-After", "1")
		msg := shedMessage(dec)
		s.rejectJSON(w, http.StatusServiceUnavailable, s.metrics.errShed, errKindShed, rid, msg)
		finish(http.StatusServiceUnavailable, msg, errKindShed, nil)
		return
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// The engine records plan/simulate spans (with one child per planned
	// job) into the request trace; ?trace=1 additionally attaches the
	// materialized tree to the trailing summary line. Either way the
	// flight recorder retains the spans of kept forest requests.
	attachTrace := traceWanted(r)
	cfg.Trace = tr
	cfg.TraceParent = obs.RootSpan
	type outcome struct {
		status  int
		errMsg  string
		errKind string
		res     *forest.Result
	}
	ch := make(chan outcome, 1)
	// The pool worker does all CPU work — trace decode, per-job planning,
	// the whole simulation — so forest runs respect the same CPU budget
	// as every other endpoint. The handler goroutine only does I/O.
	s.submit(func() {
		ch <- func() (out outcome) {
			defer func() {
				if rec := recover(); rec != nil {
					s.metrics.errInternal.Inc()
					out = outcome{status: http.StatusInternalServerError,
						errMsg:  fmt.Sprintf("internal error: panic during forest run: %v", rec),
						errKind: errKindInternal}
				}
			}()
			// Chaos worker faults fire inside this recover scope, like on
			// the schedule path.
			switch f := s.cfg.Chaos.At(chaos.SiteWorker); f.Kind {
			case chaos.Latency:
				time.Sleep(f.Dur)
			case chaos.Panic:
				panic("chaos: injected worker panic")
			}
			// MaxBodyBytes bounds the whole trace (like /v1/schedule's
			// body) as well as each line, so a trace cannot demand
			// MaxForestJobs × MaxNodes of memory regardless of how the
			// per-job limits multiply out.
			body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
			did := tr.Start("decode", obs.RootSpan)
			jobs, err := forest.DecodeTrace(body, forest.DecodeLimits{
				MaxJobs:      s.cfg.MaxForestJobs,
				MaxNodes:     s.cfg.MaxNodes,
				MaxLineBytes: s.cfg.MaxBodyBytes,
			})
			tr.SetValue(did, int64(len(jobs)))
			tr.End(did)
			if err != nil {
				status, kind := http.StatusBadRequest, errKindDecode
				var tooLarge *http.MaxBytesError
				if errors.Is(err, forest.ErrTraceTooLarge) || errors.Is(err, tree.ErrTooLarge) || errors.As(err, &tooLarge) {
					status, kind = http.StatusRequestEntityTooLarge, errKindLimit
					s.metrics.errLimit.Inc()
				} else {
					s.metrics.errDecode.Inc()
				}
				return outcome{status: status, errMsg: err.Error(), errKind: kind}
			}
			res, err := forest.Run(ctx, jobs, cfg)
			if err != nil {
				status, kind := http.StatusInternalServerError, errKindInternal
				switch {
				case errors.Is(ctx.Err(), context.DeadlineExceeded):
					status, kind = http.StatusServiceUnavailable, errKindDeadline
					s.metrics.errDeadline.Inc()
				case ctx.Err() != nil:
					status, kind = http.StatusBadRequest, errKindCancelled
					s.metrics.errCancelled.Inc()
				default:
					s.metrics.errInternal.Inc()
				}
				return outcome{status: status, errMsg: err.Error(), errKind: kind}
			}
			s.metrics.forestJobs.Add(int64(res.Summary.Jobs))
			s.metrics.forestRejected.Add(int64(res.Summary.Rejected))
			s.metrics.forestRounds.Add(int64(res.Summary.Rounds))
			s.metrics.forestBookRej.Add(int64(res.Summary.BookingRejections))
			return outcome{status: http.StatusOK, res: res}
		}()
	})
	out := <-ch
	if out.errMsg != "" {
		if out.status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, out.status, Response{RequestID: rid, Error: out.errMsg})
	} else {
		var spans *obs.SpanNode
		if attachTrace {
			spans = tr.Tree()
		}
		writeForestNDJSON(w, out.res, spans)
	}
	finish(out.status, out.errMsg, out.errKind, out.res)
}

// writeForestNDJSON streams the per-job results and the trailing summary
// line; a non-nil trace rides on the summary line (the trace covers the
// whole run, so it belongs to the run-level line, not any job's). Results
// are bounded by MaxForestJobs, so they are encoded from the materialized
// Result rather than pipelined.
func writeForestNDJSON(w http.ResponseWriter, res *forest.Result, trace *obs.SpanNode) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for i := range res.Jobs {
		if err := enc.Encode(&res.Jobs[i]); err != nil {
			return // client gone; nothing sensible to do mid-stream
		}
	}
	enc.Encode(struct {
		Summary *forest.Summary `json:"summary"`
		Trace   *obs.SpanNode   `json:"trace,omitempty"`
	}{&res.Summary, trace})
}

// forestConfigFromQuery builds the engine config from the request's query
// parameters, rejecting unknown names and out-of-range values.
func forestConfigFromQuery(q url.Values, maxProcs int) (forest.Config, error) {
	cfg := forest.Config{Processors: 4}
	if v := q.Get("p"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			return cfg, fmt.Errorf("bad p %q (want an integer >= 1)", v)
		}
		cfg.Processors = p
	}
	if v := q.Get("machine"); v != "" {
		m, err := machine.ParseSpec(v)
		if err != nil {
			return cfg, err
		}
		if q.Get("p") != "" && cfg.Processors != m.P() {
			return cfg, fmt.Errorf("p=%d conflicts with machine %q (%d processors)", cfg.Processors, v, m.P())
		}
		cfg.Machine = m
		cfg.Processors = m.P()
	}
	if cfg.Processors > maxProcs {
		return cfg, fmt.Errorf("p=%d exceeds limit %d", cfg.Processors, maxProcs)
	}
	if v := q.Get("policy"); v != "" {
		pol, err := forest.ParsePolicy(v)
		if err != nil {
			return cfg, err
		}
		cfg.Policy = pol
	}
	if v := q.Get("mem_cap"); v != "" {
		m, err := strconv.ParseInt(v, 10, 64)
		if err != nil || m < 1 {
			return cfg, fmt.Errorf("bad mem_cap %q (want an integer >= 1)", v)
		}
		cfg.MemCap = m
	}
	if v := q.Get("mem_cap_factor"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0) {
			return cfg, fmt.Errorf("bad mem_cap_factor %q (want a number > 0)", v)
		}
		cfg.MemCapFactor = f
	}
	if v := q.Get("default_heuristic"); v != "" {
		id, err := sched.ParseHeuristic(v)
		if err != nil {
			return cfg, err
		}
		cfg.DefaultHeuristic = id
	}
	return cfg, nil
}
