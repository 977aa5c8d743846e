package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"treesched/internal/obs"
	"treesched/internal/sched"
)

// flightPage decodes GET /debug/flight.
type flightPage struct {
	Seen    uint64            `json:"seen"`
	Kept    uint64            `json:"kept"`
	Entries []obs.FlightEntry `json:"entries"`
}

func getFlight(t *testing.T, h http.Handler, path string) flightPage {
	t.Helper()
	var page flightPage
	if err := json.Unmarshal([]byte(getBody(t, h, path)), &page); err != nil {
		t.Fatal(err)
	}
	return page
}

// TestFlightRecorderEndpoint checks GET /debug/flight end to end: every
// request retained (sample-every 1), newest first, request ids matching
// the X-Request-Id headers, stage spans present, and error entries
// carrying the error kind.
func TestFlightRecorderEndpoint(t *testing.T) {
	s := New(Config{Workers: 2, FlightSampleEvery: 1})
	defer s.Close()
	h := s.Handler()

	good := postJSON(t, h, "/v1/schedule", Request{Tree: testTree(t, 31, 25), Processors: 2})
	if good.Code != http.StatusOK {
		t.Fatalf("schedule: %d %s", good.Code, good.Body.String())
	}
	goodRid := good.Header().Get("X-Request-Id")
	bad := post(t, h, "/v1/schedule", []byte("{not json"))
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("bad request: %d", bad.Code)
	}
	badRid := bad.Header().Get("X-Request-Id")

	page := getFlight(t, h, "/debug/flight")
	if page.Seen != 2 || page.Kept != 2 {
		t.Fatalf("seen/kept = %d/%d, want 2/2", page.Seen, page.Kept)
	}
	if len(page.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(page.Entries))
	}
	// Newest first: the error is the most recent request.
	e0, e1 := page.Entries[0], page.Entries[1]
	if e0.RequestID != badRid || e1.RequestID != goodRid {
		t.Fatalf("entry order/ids: got [%s %s], want [%s %s]", e0.RequestID, e1.RequestID, badRid, goodRid)
	}
	if e0.Sampled != obs.SampledError || e0.ErrorKind != "decode" || e0.Status != http.StatusBadRequest {
		t.Errorf("error entry: %+v", e0)
	}
	if e1.Endpoint != epSchedule || e1.Nodes != 25 || e1.Error != "" {
		t.Errorf("good entry: %+v", e1)
	}
	spanNames := map[string]bool{}
	for _, sp := range e1.Spans {
		spanNames[sp.Name] = true
	}
	for _, want := range []string{"decode", "hash", "cache", "precompute", "schedule"} {
		if !spanNames[want] {
			t.Errorf("good entry missing span %q (have %v)", want, spanNames)
		}
	}

	// The response body carries the same id the flight entry is keyed by.
	if resp := decodeResponse(t, good); resp.RequestID != goodRid {
		t.Errorf("response request_id %q != header %q", resp.RequestID, goodRid)
	}
}

// TestFlightDumpToLogs checks ?dump=1: the ring's entries land in the
// structured log, oldest first, keyed by request id.
func TestFlightDumpToLogs(t *testing.T) {
	var logBuf bytes.Buffer
	s := New(Config{
		Workers: 1, FlightSampleEvery: 1,
		Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	defer s.Close()
	h := s.Handler()

	rec := postJSON(t, h, "/v1/schedule", Request{Tree: testTree(t, 32, 10), Processors: 2})
	rid := rec.Header().Get("X-Request-Id")
	logBuf.Reset()

	page := getFlight(t, h, "/debug/flight?dump=1")
	if page.Kept != 1 {
		t.Fatalf("kept = %d, want 1", page.Kept)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, `"msg":"flight"`) || !strings.Contains(logs, `"request_id":"`+rid+`"`) {
		t.Errorf("dump missing flight record for %s:\n%s", rid, logs)
	}
}

// TestFlightSamplingPolicy checks the service-level keep policy: with the
// default 1-in-N sampling, errors are still always retained.
func TestFlightSamplingPolicy(t *testing.T) {
	s := New(Config{Workers: 1, FlightSampleEvery: 1000})
	defer s.Close()
	h := s.Handler()

	for i := 0; i < 5; i++ {
		post(t, h, "/v1/schedule", []byte("{not json"))
	}
	page := getFlight(t, h, "/debug/flight")
	if page.Kept < 5 {
		t.Fatalf("kept = %d, want >= 5 (errors are always retained)", page.Kept)
	}
}

// TestBatchLineRequestIDs checks satellite (c): every batch NDJSON result
// line carries a derived request id "<batch-id>.<line>", and per-line
// flight entries are recorded against the batch endpoint.
func TestBatchLineRequestIDs(t *testing.T) {
	s := New(Config{Workers: 2, FlightSampleEvery: 1})
	defer s.Close()
	h := s.Handler()

	treeText := "2\n0 -1 5 2 3\n1 0 3 1 2\n"
	var batch bytes.Buffer
	fmt.Fprintf(&batch, `{"id":"a","tree_text":%q,"p":2}`+"\n", treeText)
	fmt.Fprintf(&batch, `{"id":"b","bogus}`+"\n") // malformed line
	rec := post(t, h, "/v1/schedule/batch", batch.Bytes())
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d", rec.Code)
	}
	rid := rec.Header().Get("X-Request-Id")

	var lineRids []string
	for i, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		var resp Response
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		want := fmt.Sprintf("%s.%d", rid, i+1)
		if resp.RequestID != want {
			t.Errorf("line %d request_id = %q, want %q", i, resp.RequestID, want)
		}
		lineRids = append(lineRids, resp.RequestID)
	}
	if len(lineRids) != 2 {
		t.Fatalf("got %d lines, want 2", len(lineRids))
	}

	page := getFlight(t, h, "/debug/flight")
	byRid := map[string]obs.FlightEntry{}
	for _, e := range page.Entries {
		byRid[e.RequestID] = e
	}
	for _, lr := range lineRids {
		e, ok := byRid[lr]
		if !ok {
			t.Errorf("no flight entry for batch line %s", lr)
			continue
		}
		if e.Endpoint != epBatch {
			t.Errorf("line %s recorded on %s, want %s", lr, e.Endpoint, epBatch)
		}
	}
	if e := byRid[lineRids[1]]; e.Sampled != obs.SampledError || e.ErrorKind != "decode" {
		t.Errorf("malformed line's flight entry: %+v", e)
	}
}

// TestSLOFamiliesAndHealthz checks the SLO layer end to end: the
// treeschedd_slo_* families appear with the configured endpoint labels,
// a latency-violating SLO burns, and /healthz reports the burn.
func TestSLOFamiliesAndHealthz(t *testing.T) {
	s := New(Config{Workers: 2, SLOs: []SLO{
		{Endpoint: epSchedule, Latency: time.Nanosecond, Objective: 0.99}, // impossible: everything is bad
		{Endpoint: epPortfolio, Latency: time.Minute, Objective: 0.999},   // generous: everything is good
	}})
	defer s.Close()
	h := s.Handler()

	if rec := postJSON(t, h, "/v1/schedule", Request{Tree: testTree(t, 33, 20), Processors: 2}); rec.Code != http.StatusOK {
		t.Fatalf("schedule: %d", rec.Code)
	}
	if rec := postJSON(t, h, "/v1/portfolio", Request{Tree: testTree(t, 33, 20), Processors: 2}); rec.Code != http.StatusOK {
		t.Fatalf("portfolio: %d", rec.Code)
	}
	// 4xx must not count against the schedule SLO.
	post(t, h, "/v1/schedule", []byte("{not json"))

	samples := parseMetricsPage(t, getBody(t, h, "/metrics"))
	if got := samples[`treeschedd_slo_requests_total{endpoint="`+epSchedule+`"}`]; got != "1" {
		t.Errorf("slo_requests schedule = %q, want 1 (4xx excluded)", got)
	}
	if got := samples[`treeschedd_slo_bad_total{endpoint="`+epSchedule+`"}`]; got != "1" {
		t.Errorf("slo_bad schedule = %q, want 1 (blew the 1ns threshold)", got)
	}
	if got := samples[`treeschedd_slo_bad_total{endpoint="`+epPortfolio+`"}`]; got != "0" {
		t.Errorf("slo_bad portfolio = %q, want 0", got)
	}
	if got := samples[`treeschedd_slo_objective{endpoint="`+epSchedule+`"}`]; got != "0.99" {
		t.Errorf("slo_objective = %q, want 0.99", got)
	}
	for _, win := range []string{"5m", "1h"} {
		key := `treeschedd_slo_burn_rate{endpoint="` + epSchedule + `",window="` + win + `"}`
		if _, ok := samples[key]; !ok {
			t.Errorf("missing burn-rate sample %s", key)
		}
	}

	var health struct {
		Status string      `json:"status"`
		SLOs   []sloHealth `json:"slos"`
	}
	if err := json.Unmarshal([]byte(getBody(t, h, "/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Errorf("healthz status = %q, want degraded (schedule SLO burning)", health.Status)
	}
	if len(health.SLOs) != 2 {
		t.Fatalf("healthz slos = %+v, want 2 rows", health.SLOs)
	}
	// Rows are endpoint-sorted: /v1/portfolio before /v1/schedule.
	if health.SLOs[0].Endpoint != epPortfolio || health.SLOs[0].Burning {
		t.Errorf("portfolio row: %+v, want not burning", health.SLOs[0])
	}
	sched := health.SLOs[1]
	if sched.Endpoint != epSchedule || !sched.Burning || sched.BurnRate5m <= 1 || sched.BurnRate1h <= 1 {
		t.Errorf("schedule row: %+v, want burning with both rates > 1", sched)
	}
}

// TestParseSLO covers the flag grammar.
func TestParseSLO(t *testing.T) {
	good := []struct {
		in   string
		want SLO
	}{
		{"/v1/schedule:250ms:99.9", SLO{Endpoint: "/v1/schedule", Latency: 250 * time.Millisecond, Objective: 0.999}},
		{"/v1/forest:0:0.95", SLO{Endpoint: "/v1/forest", Latency: 0, Objective: 0.95}},
		{"/v1/schedule/batch:2s:99", SLO{Endpoint: "/v1/schedule/batch", Latency: 2 * time.Second, Objective: 0.99}},
	}
	for _, tc := range good {
		got, err := ParseSLO(tc.in)
		if err != nil {
			t.Errorf("ParseSLO(%q): %v", tc.in, err)
			continue
		}
		// Percentages divide by 100, so compare objectives with a float
		// tolerance.
		if got.Endpoint != tc.want.Endpoint || got.Latency != tc.want.Latency ||
			math.Abs(got.Objective-tc.want.Objective) > 1e-12 {
			t.Errorf("ParseSLO(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	for _, in := range []string{"", "nocolon", "/v1/schedule:99.9", "x:250ms:99.9", "/v1/schedule:banana:99.9", "/v1/schedule:250ms:0", "/v1/schedule:250ms:101"} {
		if _, err := ParseSLO(in); err == nil {
			t.Errorf("ParseSLO(%q) unexpectedly succeeded", in)
		}
	}
}

// TestOpenMetricsNegotiation checks /metrics content negotiation: the
// OpenMetrics media type in Accept switches the exposition to OM 1.0
// (counters keep _total on samples but drop it from headers, the page
// ends with # EOF, bucket lines may carry exemplars), everything else
// gets classic text 0.0.4.
func TestOpenMetricsNegotiation(t *testing.T) {
	s := New(Config{Workers: 1, FlightSampleEvery: 1})
	defer s.Close()
	h := s.Handler()
	rec := postJSON(t, h, "/v1/schedule", Request{Tree: testTree(t, 34, 15), Processors: 2})
	rid := rec.Header().Get("X-Request-Id")

	get := func(accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		out := httptest.NewRecorder()
		h.ServeHTTP(out, req)
		return out
	}

	text := get("")
	if ct := text.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Errorf("default content-type %q", ct)
	}
	if strings.Contains(text.Body.String(), "# EOF") {
		t.Error("classic text page must not end with # EOF")
	}
	parseMetricsPage(t, text.Body.String())

	om := get("application/openmetrics-text; version=1.0.0; charset=utf-8")
	if ct := om.Header().Get("Content-Type"); !strings.Contains(ct, "application/openmetrics-text") {
		t.Errorf("OM content-type %q", ct)
	}
	page := om.Body.String()
	if !strings.HasSuffix(page, "# EOF\n") {
		t.Error("OpenMetrics page must end with # EOF")
	}
	if !strings.Contains(page, "# TYPE treeschedd_requests counter") {
		t.Error("OM counter header must drop the _total suffix")
	}
	if !strings.Contains(page, `treeschedd_requests_total{endpoint="/v1/schedule"} 1`) {
		t.Error("OM counter samples must keep the _total suffix")
	}
	// The request's latency exemplar links the histogram to the flight
	// recorder entry.
	if !strings.Contains(page, `# {request_id="`+rid+`"}`) {
		t.Errorf("OM page missing exemplar for %s", rid)
	}
}

// TestMetricFamiliesAllExposed mirrors the CI drift gate in-process:
// every family the registry knows about must appear on the /metrics page
// with a HELP header.
func TestMetricFamiliesAllExposed(t *testing.T) {
	s := New(Config{Workers: 1, SLOs: []SLO{{Endpoint: epSchedule, Latency: time.Second, Objective: 0.999}}})
	defer s.Close()
	page := getBody(t, s.Handler(), "/metrics")
	fams := s.MetricFamilies()
	if len(fams) == 0 {
		t.Fatal("no registered families")
	}
	for _, fam := range fams {
		if !strings.Contains(page, "# HELP "+fam+" ") {
			t.Errorf("family %s registered but not exposed", fam)
		}
	}
	for _, want := range []string{"treeschedd_flight_seen_total", "treeschedd_flight_kept_total", "treeschedd_slo_burn_rate"} {
		found := false
		for _, fam := range fams {
			if fam == want {
				found = true
			}
		}
		if !found {
			t.Errorf("FamilyNames missing %s", want)
		}
	}
}

// TestTimelineParam checks ?timeline=1 on /v1/schedule and /v1/portfolio:
// the response carries valid Chrome-trace JSON with one complete event per
// tree node, and timeline responses bypass the cache.
func TestTimelineParam(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 35, 20)

	resp := decodeResponse(t, postJSON(t, h, "/v1/schedule?timeline=1", Request{Tree: tr, Processors: 2}))
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if resp.Timeline == nil {
		t.Fatal("no timeline with ?timeline=1")
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(resp.Timeline, &doc); err != nil {
		t.Fatalf("timeline is not valid chrome-trace JSON: %v", err)
	}
	var tasks, counters int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			tasks++
		case "C":
			counters++
		}
	}
	if tasks != 20 {
		t.Errorf("timeline has %d task events, want 20", tasks)
	}
	if counters == 0 {
		t.Error("timeline has no memory counter samples")
	}

	// Timeline requests bypass the cache in both directions.
	again := decodeResponse(t, postJSON(t, h, "/v1/schedule?timeline=1", Request{Tree: tr, Processors: 2}))
	if again.Cached || again.Timeline == nil {
		t.Errorf("second timeline request: cached=%v timeline=%v", again.Cached, again.Timeline != nil)
	}

	// Plain requests never see a timeline.
	plain := decodeResponse(t, postJSON(t, h, "/v1/schedule", Request{Tree: tr, Processors: 2}))
	if plain.Timeline != nil {
		t.Error("timeline present without ?timeline=1")
	}

	// Portfolio: the winner's schedule from the race renders the timeline.
	presp := decodeResponse(t, postJSON(t, h, "/v1/portfolio?timeline=1", Request{Tree: tr, Processors: 2}))
	if presp.Error != "" {
		t.Fatal(presp.Error)
	}
	if presp.Winner == nil || presp.Timeline == nil {
		t.Fatalf("portfolio timeline: winner=%v timeline=%v", presp.Winner, presp.Timeline != nil)
	}
}

// timelineEvents decodes a timeline: its task count, and its memory
// samples with their cap series, if it draws one.
func timelineEvents(t *testing.T, raw json.RawMessage) (tasks int, resident, caps []int64) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Args struct {
				Resident *int64 `json:"resident"`
				Cap      *int64 `json:"cap"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline is not valid chrome-trace JSON: %v", err)
	}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X":
			tasks++
		case e.Ph == "C" && e.Name == "memory":
			if e.Args.Resident == nil {
				t.Fatalf("memory sample without a resident series")
			}
			resident = append(resident, *e.Args.Resident)
			if e.Args.Cap != nil {
				caps = append(caps, *e.Args.Cap)
			}
		}
	}
	return tasks, resident, caps
}

// TestTimelineCapIsTheRunCap checks that a capped ?timeline=1 answer
// draws the cap the capped heuristics ran under, ⌈f × memory_seq⌉, and
// that resident memory stays under it, on every tree and machine of the
// golden grid; and that a timeline whose schedule ran uncapped draws no
// cap, though the request carries a factor: a lone uncapped heuristic,
// and an uncapped heuristic listed before a capped one (the timeline
// shows the first).
func TestTimelineCapIsTheRunCap(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := s.Handler()
	checked := 0
	for _, g := range goldenGrid(t) {
		if !strings.Contains(g.name, "/capped/") || g.path != "/v1/schedule?timeline=1" {
			continue
		}
		var req Request
		if err := json.Unmarshal(g.body, &req); err != nil {
			t.Fatal(err)
		}
		resp := decodeResponse(t, post(t, h, g.path, g.body))
		if resp.Error != "" || resp.Timeline == nil || resp.Bounds == nil {
			t.Fatalf("%s: error %q, timeline %v", g.name, resp.Error, resp.Timeline != nil)
		}
		want := int64(math.Ceil(req.MemCapFactor * float64(resp.Bounds.MemorySeq)))
		_, resident, caps := timelineEvents(t, resp.Timeline)
		if len(caps) == 0 || len(caps) != len(resident) {
			t.Fatalf("%s: %d memory samples, %d with a cap", g.name, len(resident), len(caps))
		}
		for i, c := range caps {
			if c != want {
				t.Fatalf("%s: cap series reads %d, want ⌈%g × %d⌉ = %d", g.name, c, req.MemCapFactor, resp.Bounds.MemorySeq, want)
			}
			if resident[i] > c {
				t.Fatalf("%s: resident %d crosses the drawn cap %d", g.name, resident[i], c)
			}
		}
		for _, ids := range [][]sched.HeuristicID{
			{sched.IDParInnerFirst},
			{sched.IDParDeepestFirst, sched.IDMemCapped},
		} {
			req.Heuristics = ids
			resp := decodeResponse(t, post(t, h, g.path, mustJSON(t, req)))
			if resp.Error != "" || resp.Timeline == nil {
				t.Fatalf("%s %v: error %q, timeline %v", g.name, ids, resp.Error, resp.Timeline != nil)
			}
			if _, resident, caps := timelineEvents(t, resp.Timeline); len(resident) == 0 || len(caps) != 0 {
				t.Fatalf("%s %v: %d memory samples, %d with a cap; an uncapped %s schedule has none",
					g.name, ids, len(resident), len(caps), ids[0])
			}
		}
		checked++
	}
	if checked != 12 {
		t.Fatalf("checked %d capped timelines, want 12", checked)
	}
}

// TestForestTraceParam checks satellite (a): ?trace=1 on /v1/forest
// attaches the run's span tree to the trailing summary line, with decode,
// plan (one child per job) and simulate stages.
func TestForestTraceParam(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := s.Handler()

	treeText := "3\n0 -1 5 2 3\n1 0 3 1 2\n2 0 2 1 4\n"
	var body bytes.Buffer
	fmt.Fprintf(&body, `{"id":"j1","tree_text":%q}`+"\n", treeText)
	fmt.Fprintf(&body, `{"id":"j2","tree_text":%q,"arrival":0.5}`+"\n", treeText)
	req := httptest.NewRequest(http.MethodPost, "/v1/forest?p=2&trace=1", bytes.NewReader(body.Bytes()))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("forest: %d %s", rec.Code, rec.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var summary struct {
		Summary *json.RawMessage `json:"summary"`
		Trace   *obs.SpanNode    `json:"trace"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatal(err)
	}
	if summary.Summary == nil {
		t.Fatal("missing summary on final line")
	}
	if summary.Trace == nil {
		t.Fatal("missing trace on final line with ?trace=1")
	}
	byName := map[string]*obs.SpanNode{}
	summary.Trace.Walk(func(n *obs.SpanNode, _ int) { byName[n.Name] = n })
	for _, want := range []string{"decode", "plan", "plan:j1", "plan:j2", "simulate"} {
		if byName[want] == nil {
			t.Errorf("forest trace missing span %q", want)
		}
	}
	if sp := byName["plan:j1"]; sp != nil && sp.Value != 3 {
		t.Errorf("plan:j1 value = %d, want node count 3", sp.Value)
	}

	// Without ?trace=1, the summary line has no trace but flight still
	// retained the spans server-side.
	req = httptest.NewRequest(http.MethodPost, "/v1/forest?p=2", bytes.NewReader(body.Bytes()))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	lines = strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if strings.Contains(lines[len(lines)-1], `"trace"`) {
		t.Error("trace attached without ?trace=1")
	}
}
