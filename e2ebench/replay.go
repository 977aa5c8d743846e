package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"treesched/internal/forest"
	"treesched/internal/machine"
	"treesched/internal/portfolio"
	"treesched/internal/sched"
	"treesched/internal/service"
	"treesched/internal/tree"
)

// span is one timed interval of the traced run. Spans of one request share
// req; parent indexes the enclosing span, -1 at the root.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Value is the span's count: nodes for the tree and precompute spans,
	// heap allocations for schedule spans, bytes for encode.
	Value int64 `json:"value,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name, req string, parent int) int {
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int, value int64) {
	r.spans[id].End = int64(time.Since(r.t0))
	r.spans[id].Value = value
}

// layerTime aggregates the spans of one name: count, total self time (the
// span's duration minus the time its children cover) and total value.
type layerTime struct {
	n     int
	self  time.Duration
	value float64
}

func (r *recorder) aggregate() map[string]*layerTime {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTime{}
	for i, s := range r.spans {
		a := out[s.Name]
		if a == nil {
			a = &layerTime{}
			out[s.Name] = a
		}
		a.n++
		a.self += time.Duration(s.End - s.Start - child[i])
		a.value += float64(s.Value)
	}
	return out
}

// write stores the spans as NDJSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// replayer walks requests through the layers' public functions on one
// goroutine, in the order the server calls them, and compares what it
// computes with the server's answers.
type replayer struct {
	rec        *recorder
	checked    int // answers compared
	mismatches []string
	// Portfolio races: wall time, summed candidate time, frontier sizes.
	races                    int
	raceTime, candidateTime  time.Duration
	frontier                 int
	forestJobs, forestRounds int
	forestBookRej            int
}

func (rp *replayer) mismatch(format string, args ...any) {
	rp.mismatches = append(rp.mismatches, fmt.Sprintf(format, args...))
}

// mallocs returns the process's heap allocation count. It stops the world,
// so it is read outside the spans it brackets.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// envelope is service.Request with the tree left raw, so that the request
// decode and the tree codec are timed as separate spans.
type envelope struct {
	service.Request
	Tree json.RawMessage `json:"tree,omitempty"`
}

// request replays one HTTP request against the answers the server gave.
func (rp *replayer) request(r *request, body []byte, want answerSet) error {
	switch r.kind {
	case kindForest:
		return rp.forest(r, body, want)
	case kindBatch:
		lines := ndjsonLines(body)
		if len(lines) != len(r.items) {
			return fmt.Errorf("batch %s: %d lines for %d items", r.items[0].id, len(lines), len(r.items))
		}
		for k, line := range lines {
			var w *service.Response
			if want.responses != nil {
				w = want.responses[k]
			}
			if err := rp.schedule(r.items[k].id, line, false, w); err != nil {
				return err
			}
		}
		return nil
	}
	var w *service.Response
	if want.responses != nil {
		w = want.responses[0]
	}
	return rp.schedule(r.items[0].id, body, r.kind == kindPortfolio, w)
}

// schedule replays one scheduling request: decode (with the tree codec as
// a child), canonical hash, Precompute, then SelectPre and RunOn plus
// Evaluate per heuristic or one portfolio race, then the response encode.
// want is the server's answer, nil when it failed its checks.
func (rp *replayer) schedule(id string, body []byte, forcePortfolio bool, want *service.Response) error {
	rec := rp.rec
	root := rec.begin("request", id, -1)
	dec := rec.begin("decode", id, root)
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("%s: decoding request: %w", id, err)
	}
	var t *tree.Tree
	var err error
	if len(env.Tree) > 0 {
		codec := rec.begin("tree_codec.json", id, dec)
		t = new(tree.Tree)
		err = t.UnmarshalJSON(env.Tree)
		rec.end(codec, int64(t.Len()))
	} else {
		codec := rec.begin("tree_codec.text", id, dec)
		t, err = tree.DecodeMax(strings.NewReader(env.TreeText), service.DefaultMaxNodes)
		if err == nil {
			rec.end(codec, int64(t.Len()))
		}
	}
	if err != nil {
		return fmt.Errorf("%s: decoding tree: %w", id, err)
	}
	rec.end(dec, 0)

	h := rec.begin("hash", id, root)
	hash := t.CanonicalHash()
	rec.end(h, int64(t.Len()))
	p := rec.begin("precompute", id, root)
	pc := sched.NewPrecompute(t)
	rec.end(p, int64(t.Len()))

	opts := sched.Options{Processors: env.Processors, Heuristics: env.Heuristics, MemCapFactor: env.MemCapFactor}
	if env.Machine != "" {
		mm, err := machine.ParseSpec(env.Machine)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		opts.Processors = mm.P()
		if !mm.IsUniform() {
			opts.Machine = mm
		}
	}
	if want != nil && want.TreeHash != hash {
		rp.mismatch("%s: tree hash", id)
	}
	if forcePortfolio || env.Objective != nil {
		if err := rp.race(id, root, pc, opts, env.Objective, want); err != nil {
			return err
		}
	} else if err := rp.heuristics(id, root, pc, opts, want); err != nil {
		return err
	}
	if want != nil {
		rp.checked++
		e := rec.begin("encode", id, root)
		b, err := json.Marshal(want)
		if err != nil {
			return fmt.Errorf("%s: encoding response: %w", id, err)
		}
		rec.end(e, int64(len(b)))
	}
	rec.end(root, 0)
	return nil
}

// heuristics replays the plain path: SelectPre, then RunOn and Evaluate
// per selected heuristic.
func (rp *replayer) heuristics(id string, root int, pc *sched.Precompute, opts sched.Options, want *service.Response) error {
	rec := rp.rec
	sel := rec.begin("select", id, root)
	hs, memSeq, err := opts.SelectPre(pc)
	rec.end(sel, 0)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	if want != nil && (want.Bounds == nil || want.Bounds.MemorySeq != memSeq || len(want.Results) != len(hs)) {
		rp.mismatch("%s: bounds or result count", id)
		want = nil
	}
	m := opts.Model()
	for k, h := range hs {
		a0 := mallocs()
		s := rec.begin("schedule:"+h.ID.String(), id, root)
		sc, err := h.RunOn(pc.Tree(), m)
		rec.end(s, 0)
		rec.spans[s].Value = int64(mallocs() - a0)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", id, h.ID, err)
		}
		ev := rec.begin("evaluate", id, root)
		mk, peak, err := sched.Evaluate(pc.Tree(), sc)
		rec.end(ev, 0)
		if err != nil {
			return fmt.Errorf("%s: %s: evaluate: %w", id, h.ID, err)
		}
		if want != nil && (want.Results[k].Makespan != mk || want.Results[k].PeakMemory != peak) {
			rp.mismatch("%s: %s makespan %g peak %d, server %g %d", id, h.ID, mk, peak,
				want.Results[k].Makespan, want.Results[k].PeakMemory)
		}
	}
	return nil
}

// race replays the portfolio path: one portfolio.RunPre race, at the
// width an idle server gives it.
func (rp *replayer) race(id string, root int, pc *sched.Precompute, opts sched.Options, obj *portfolio.Objective, want *service.Response) error {
	o := portfolio.MinMakespan()
	if obj != nil {
		o = *obj
	}
	if len(opts.Heuristics) == 0 {
		opts.Heuristics = portfolio.DefaultCandidates()
	}
	s := rp.rec.begin("portfolio", id, root)
	res, err := portfolio.RunPre(context.Background(), pc, o, portfolio.Options{Options: opts})
	rp.rec.end(s, 0)
	if err != nil {
		return fmt.Errorf("%s: portfolio: %w", id, err)
	}
	rp.races++
	rp.raceTime += res.Elapsed
	for _, c := range res.Candidates {
		rp.candidateTime += c.Elapsed
	}
	rp.frontier += len(res.Frontier)
	if want == nil {
		return nil
	}
	w, ok := res.WinnerCandidate()
	if !ok || want.Winner == nil || *want.Winner != w.ID || len(want.Results) != len(res.Candidates) {
		rp.mismatch("%s: portfolio winner or candidate count", id)
		return nil
	}
	for k, c := range res.Candidates {
		if want.Results[k].Makespan != c.Makespan || want.Results[k].PeakMemory != c.PeakMemory {
			rp.mismatch("%s: candidate %s makespan %g peak %d, server %g %d", id, c.ID, c.Makespan,
				c.PeakMemory, want.Results[k].Makespan, want.Results[k].PeakMemory)
		}
	}
	return nil
}

// forest replays a /v1/forest trace: DecodeTrace, then Run with the
// request's query parameters.
func (rp *replayer) forest(r *request, body []byte, want answerSet) error {
	id := r.items[0].id
	u, err := url.Parse(r.path)
	if err != nil {
		return err
	}
	q := u.Query()
	cfg := forest.Config{}
	if cfg.Processors, err = strconv.Atoi(q.Get("p")); err != nil {
		return fmt.Errorf("%s: p: %w", id, err)
	}
	if cfg.MemCapFactor, err = strconv.ParseFloat(q.Get("mem_cap_factor"), 64); err != nil {
		return fmt.Errorf("%s: mem_cap_factor: %w", id, err)
	}
	if cfg.Policy, err = forest.ParsePolicy(q.Get("policy")); err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	rec := rp.rec
	root := rec.begin("request", id, -1)
	d := rec.begin("forest.decode", id, root)
	jobs, err := forest.DecodeTrace(bytes.NewReader(body), forest.DecodeLimits{
		MaxJobs: service.DefaultMaxForestJobs, MaxNodes: service.DefaultMaxNodes, MaxLineBytes: service.DefaultMaxBodyBytes})
	rec.end(d, int64(len(jobs)))
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	run := rec.begin("forest.run", id, root)
	res, err := forest.Run(context.Background(), jobs, cfg)
	rec.end(run, int64(len(jobs)))
	rec.end(root, 0)
	if err != nil {
		return fmt.Errorf("%s: forest run: %w", id, err)
	}
	rp.forestJobs += res.Summary.Jobs
	rp.forestRounds += res.Summary.Rounds
	rp.forestBookRej += res.Summary.BookingRejections
	if want.summary == nil {
		return nil
	}
	rp.checked++
	if res.Summary.PeakResident != want.summary.PeakResident || res.Summary.Makespan != want.summary.Makespan {
		rp.mismatch("%s: forest peak %d makespan %g, server %d %g", id, res.Summary.PeakResident,
			res.Summary.Makespan, want.summary.PeakResident, want.summary.Makespan)
	}
	for k, jr := range res.Jobs {
		w := want.jobs[k]
		if w != nil && (jr.PlanMakespan != w.PlanMakespan || jr.PlanPeakMemory != w.PlanPeakMemory || jr.Finish != w.Finish) {
			rp.mismatch("%s: job %s plan %g/%d finish %g, server %g/%d %g", id, jr.ID, jr.PlanMakespan,
				jr.PlanPeakMemory, jr.Finish, w.PlanMakespan, w.PlanPeakMemory, w.Finish)
		}
	}
	return nil
}

// joined returns a request body as one slice.
func (r *request) joined() []byte {
	b := make([]byte, 0, r.size)
	for _, p := range r.pieces {
		b = append(b, p...)
	}
	return b
}

// layerHeuristics are the schedulers with per-layer schedule metrics.
var layerHeuristics = []sched.HeuristicID{sched.IDParSubtrees, sched.IDParSubtreesOptim, sched.IDParInnerFirst,
	sched.IDParDeepestFirst, sched.IDSequential, sched.IDMemCapped, sched.IDMemCappedBooking}

// tracedRun is the second half of a --trace 1 run: the same requests on a
// fresh server with client-side spans, the /metrics counters around the
// phase, then the in-process replay of the answered requests for at most
// --seconds. It returns the per-layer metrics.
func tracedRun(o options, in *input, base endToEnd, basePhase phase, baseCounters serverCounters, stdout io.Writer) (map[string]metric, error) {
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	defer srv.close()
	if err := warmUp(srv, in.warm); err != nil {
		return nil, err
	}
	ph, counters, err := timed(srv, in.reqs, o, true)
	if err != nil {
		return nil, err
	}
	v := check(in.reqs, ph.outcomes)
	e := measure(ph, v, base.tailQ)
	reportPhase(stdout, "traced", e, v)

	rec := &recorder{t0: time.Now()}
	clientSpans(rec, in.reqs, ph)
	rp := &replayer{rec: rec}
	replayed := 0
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i, out := range ph.outcomes {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		r := &in.reqs[out.req]
		if err := rp.request(r, r.joined(), v.answers[i]); err != nil {
			return nil, err
		}
		replayed++
	}
	path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.ndjson", o.workload, o.seed))
	if err := rec.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stdout, "replay: %d of %d traced requests walked in process, %d answers compared, %d mismatches; %d spans in %s\n",
		replayed, len(ph.outcomes), rp.checked, len(rp.mismatches), len(rec.spans), path)
	for k, m := range rp.mismatches {
		if k == 5 {
			break
		}
		fmt.Fprintf(stdout, "  mismatch: %s\n", m)
	}
	fmt.Fprintf(stdout, "replay agreed with every compared answer: %t\n", len(rp.mismatches) == 0)

	layers := layerMetrics(rec.aggregate(), rp, in.reqs, ph, v, counters)
	// The runtime figures come from the untraced phase, which the tracing
	// does not perturb.
	trees := float64(max(base.answered, 1))
	layers["runtime.alloc_kb_per_tree"] = metric{float64(basePhase.alloc) / 1024 / trees, "kB"}
	layers["runtime.gc_per_1k_trees"] = metric{float64(basePhase.numGC) * 1000 / trees, "count"}
	layers["runtime.gc_pause_ms"] = metric{baseCounters.gcPauseSec * 1000, "ms"}
	// The phases run back to back, so the overhead compares raw timings:
	// scaling each by its own reference measurement would add that
	// measurement's noise to the difference.
	layers["trace.overhead_p50_pct"] = metric{100 * (ratio(e.p50, base.p50) - 1), "%"}
	layers["trace.overhead_tput_pct"] = metric{100 * (1 - ratio(e.treesPerS, base.treesPerS)), "%"}
	layers["forest.stretch_mean"] = metric{base.stretch, "ratio"}
	fmt.Fprintf(stdout, "tracing overhead: p50 %+.2f%%, throughput %+.2f%% (traced phase against the untraced one)\n",
		layers["trace.overhead_p50_pct"].Value, -layers["trace.overhead_tput_pct"].Value)
	fmt.Fprintln(stdout, "per-layer:")
	printMetrics(stdout, layers, sortedNames(layers))
	return layers, nil
}

// clientSpans records each traced HTTP request as an "http" span with its
// send, wait (request written to first response byte) and read children.
func clientSpans(rec *recorder, reqs []request, ph phase) {
	off := int64(ph.t0.Sub(rec.t0))
	for _, o := range ph.outcomes {
		id := reqs[o.req].items[0].id
		start, end := off+int64(o.start), off+int64(o.start+o.latency)
		root := len(rec.spans)
		rec.spans = append(rec.spans, span{Name: "http", Req: id, Parent: -1, Start: start, End: end})
		if o.wrote == 0 || o.firstByte == 0 {
			continue
		}
		wrote, first := off+int64(o.wrote), off+int64(o.firstByte)
		rec.spans = append(rec.spans,
			span{Name: "http.send", Req: id, Parent: root, Start: start, End: wrote},
			span{Name: "http.wait", Req: id, Parent: root, Start: wrote, End: first},
			span{Name: "http.read", Req: id, Parent: root, Start: first, End: end})
	}
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// layerMetrics turns the replay's span aggregates, the traced phase and
// its /metrics delta into the per-layer metrics. A layer the workload
// does not exercise reports 0.
func layerMetrics(agg map[string]*layerTime, rp *replayer, reqs []request, ph phase, v *verdict, c serverCounters) map[string]metric {
	get := func(name string) *layerTime {
		if a := agg[name]; a != nil {
			return a
		}
		return &layerTime{}
	}
	perCall := func(name string, unit time.Duration) float64 {
		a := get(name)
		return ratio(float64(a.self)/float64(unit), float64(a.n))
	}
	perNode := func(name string) float64 {
		a := get(name)
		return ratio(float64(a.self), a.value)
	}
	var latAll, latHit, latPCHit []float64
	reqBytes, respBytes, newConns := 0, 0, 0
	for i, o := range ph.outcomes {
		l := ms(o.latency)
		latAll = append(latAll, l)
		reqBytes += reqs[o.req].size
		respBytes += len(o.body)
		if !o.reused {
			newConns++
		}
		if rs := v.answers[i].responses; len(rs) == 1 && rs[0] != nil && rs[0].Cached {
			latHit = append(latHit, l)
		}
		if o.pcache == "hit" {
			latPCHit = append(latPCHit, l)
		}
	}
	n := float64(len(ph.outcomes))
	serverMS := ratio(c.serverSec*1000, c.requests)
	m := map[string]metric{
		"service.server_ms":                 {serverMS, "ms"},
		"service.transport_ms":              {mean(latAll) - serverMS, "ms"},
		"service.queue_wait_ms":             {ratio(c.queueWaitSec*1000, c.queueJobs), "ms"},
		"service.request_decode_us":         {perCall("decode", time.Microsecond), "us"},
		"service.response_encode_us":        {perCall("encode", time.Microsecond), "us"},
		"service.request_kb":                {float64(reqBytes) / 1024 / n, "kB"},
		"service.response_kb":               {float64(respBytes) / 1024 / n, "kB"},
		"service.cache_hit_ratio":           {ratio(c.hits, c.hits+c.misses), "ratio"},
		"service.hit_latency_ms":            {median(latHit), "ms"},
		"service.new_conns":                 {float64(newConns), "count"},
		"service.batch_lines_lost":          {float64(v.byClass[failMissing]), "count"},
		"resilience.shed":                   {c.shed, "count"},
		"resilience.degraded":               {c.degraded, "count"},
		"tree.decode_json_ns_per_node":      {perNode("tree_codec.json"), "ns/node"},
		"tree.decode_text_ns_per_node":      {perNode("tree_codec.text"), "ns/node"},
		"tree.hash_ns_per_node":             {perNode("hash"), "ns/node"},
		"sched.precompute_ns_per_node":      {perNode("precompute"), "ns/node"},
		"sched.evaluate_us":                 {perCall("evaluate", time.Microsecond), "us"},
		"sched.pcache_hit_ratio":            {ratio(c.pcHits, c.pcHits+c.pcMisses), "ratio"},
		"sched.pcache_evictions":            {c.pcEvictions, "count"},
		"sched.pcache_mb":                   {c.pcBytes / (1 << 20), "MB"},
		"sched.pcache_hit_latency_ms":       {median(latPCHit), "ms"},
		"portfolio.race_ms":                 {ratio(ms(rp.raceTime), float64(rp.races)), "ms"},
		"portfolio.candidates_ms":           {ratio(ms(rp.candidateTime), float64(rp.races)), "ms"},
		"portfolio.race_speedup":            {ratio(float64(rp.candidateTime), float64(rp.raceTime)), "ratio"},
		"portfolio.frontier_size":           {ratio(float64(rp.frontier), float64(rp.races)), "count"},
		"forest.decode_ms":                  {perCall("forest.decode", time.Millisecond), "ms"},
		"forest.run_ms":                     {perCall("forest.run", time.Millisecond), "ms"},
		"forest.rounds_per_job":             {ratio(float64(rp.forestRounds), float64(rp.forestJobs)), "count"},
		"forest.booking_rejections_per_job": {ratio(float64(rp.forestBookRej), float64(rp.forestJobs)), "count"},
		"replay.compared":                   {float64(rp.checked), "count"},
		"replay.mismatches":                 {float64(len(rp.mismatches)), "count"},
	}
	for _, h := range layerHeuristics {
		a := get("schedule:" + h.String())
		m["sched.schedule_ms."+h.String()] = metric{perCall("schedule:"+h.String(), time.Millisecond), "ms"}
		m["sched.schedule_allocs."+h.String()] = metric{ratio(a.value, float64(a.n)), "count"}
	}
	return m
}
