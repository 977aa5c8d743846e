package service

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"

	"treesched/internal/obs"
	"treesched/internal/sched"
)

// expoSampleRe matches one exposition sample line:
// name{labels} value  or  name value.
var expoSampleRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|\+Inf)$`)

// parseMetricsPage machine-parses a Prometheus text page: every non-comment
// line must match the sample grammar, every sample's base family must have
// exactly one HELP immediately followed by one TYPE, and no (name, labels)
// pair may repeat. Returns the set of sample keys ("name{labels}") → value.
func parseMetricsPage(t *testing.T, page string) map[string]string {
	t.Helper()
	helpSeen := map[string]bool{}
	typeSeen := map[string]bool{}
	lastHelp := ""
	samples := map[string]string{}
	for ln, line := range strings.Split(strings.TrimRight(page, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			fam := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
			if helpSeen[fam] {
				t.Errorf("line %d: duplicate HELP for family %s", ln+1, fam)
			}
			helpSeen[fam] = true
			lastHelp = fam
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			fam := parts[0]
			if typeSeen[fam] {
				t.Errorf("line %d: duplicate TYPE for family %s", ln+1, fam)
			}
			if fam != lastHelp {
				t.Errorf("line %d: TYPE %s not adjacent to its HELP (last HELP %s)", ln+1, fam, lastHelp)
			}
			typeSeen[fam] = true
		case strings.HasPrefix(line, "#"):
			t.Errorf("line %d: unexpected comment %q", ln+1, line)
		case line == "":
			t.Errorf("line %d: blank line in exposition", ln+1)
		default:
			mm := expoSampleRe.FindStringSubmatch(line)
			if mm == nil {
				t.Errorf("line %d: sample does not match grammar: %q", ln+1, line)
				continue
			}
			fam := mm[1]
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(fam, suf); base != fam && helpSeen[base] {
					fam = base
					break
				}
			}
			if !helpSeen[fam] || !typeSeen[fam] {
				t.Errorf("line %d: sample %s has no HELP/TYPE header", ln+1, mm[1])
			}
			key := mm[1] + mm[2]
			if _, dup := samples[key]; dup {
				t.Errorf("line %d: duplicate sample %s", ln+1, key)
			}
			samples[key] = mm[3]
		}
	}
	return samples
}

// TestMetricsExpositionParses scrapes /metrics after exercising every
// endpoint and machine-checks the page: grammar, single HELP/TYPE per
// family, no duplicate samples, and presence of the observability families
// this layer added.
func TestMetricsExpositionParses(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 7, 30)

	if rec := postJSON(t, h, "/v1/schedule", Request{Tree: tr, Processors: 2}); rec.Code != http.StatusOK {
		t.Fatalf("schedule: %d %s", rec.Code, rec.Body.String())
	}
	if rec := postJSON(t, h, "/v1/portfolio", Request{Tree: tr, Processors: 2}); rec.Code != http.StatusOK {
		t.Fatalf("portfolio: %d %s", rec.Code, rec.Body.String())
	}
	treeText := "2\n0 -1 5 2 3\n1 0 3 1 2\n"
	var batch bytes.Buffer
	fmt.Fprintf(&batch, `{"tree_text":%q,"p":2}`+"\n", treeText)
	if rec := post(t, h, "/v1/schedule/batch", batch.Bytes()); rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	freq := httptest.NewRequest(http.MethodPost, "/v1/forest?p=2",
		strings.NewReader(fmt.Sprintf(`{"id":"j1","tree_text":%q}`, treeText)+"\n"))
	frec := httptest.NewRecorder()
	h.ServeHTTP(frec, freq)
	if frec.Code != http.StatusOK {
		t.Fatalf("forest: %d %s", frec.Code, frec.Body.String())
	}

	page := getBody(t, h, "/metrics")
	if ct := "text/plain; version=0.0.4"; !strings.Contains(page, "treeschedd_") {
		t.Fatalf("metrics page empty or wrong (want families, content-type %s):\n%s", ct, page)
	}
	samples := parseMetricsPage(t, page)

	for _, ep := range []string{epSchedule, epBatch, epPortfolio, epForest} {
		if samples[`treeschedd_requests_total{endpoint="`+ep+`"}`] != "1" {
			t.Errorf("requests_total for %s != 1", ep)
		}
		cnt := `treeschedd_request_duration_seconds_count{endpoint="` + ep + `"}`
		if samples[cnt] != "1" {
			t.Errorf("latency histogram count for %s = %q, want 1", ep, samples[cnt])
		}
		if _, ok := samples[`treeschedd_request_duration_seconds_bucket{endpoint="`+ep+`",le="+Inf"}`]; !ok {
			t.Errorf("latency histogram for %s missing +Inf bucket", ep)
		}
	}
	for _, want := range []string{
		"treeschedd_queue_wait_seconds_count",
		"treeschedd_tree_nodes_count",
		"treeschedd_peak_memory_units_count",
		"treeschedd_forest_rounds_total",
		"treeschedd_forest_booking_rejections_total",
		"treeschedd_goroutines",
		"treeschedd_heap_alloc_bytes",
		"treeschedd_gc_pause_seconds_total",
		"treeschedd_errors_total",
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("metrics missing sample %s", want)
		}
	}
	// The portfolio race ran once, so exactly one win landed somewhere and
	// every candidate recorded a duration.
	var wins int
	for k, v := range samples {
		if strings.HasPrefix(k, "treeschedd_portfolio_wins_total{") && v != "0" {
			wins++
		}
		if strings.HasPrefix(k, "treeschedd_candidate_duration_seconds_count{") && v == "0" {
			t.Errorf("candidate duration %s never observed", k)
		}
	}
	if wins != 1 {
		t.Errorf("portfolio win counters: %d non-zero, want exactly 1", wins)
	}
	foundBuild := false
	for k := range samples {
		if strings.HasPrefix(k, "treeschedd_build_info{") &&
			strings.Contains(k, `version="`) && strings.Contains(k, `go="go`) {
			foundBuild = true
		}
	}
	if !foundBuild {
		t.Error("metrics missing treeschedd_build_info{version=...,go=...}")
	}
}

// TestErrorKinds checks that rejections land in the right
// treeschedd_errors_total{kind} child and that the unlabeled total stays
// the sum of the kinds.
func TestErrorKinds(t *testing.T) {
	s := New(Config{Workers: 1, MaxBodyBytes: 512})
	defer s.Close()
	h := s.Handler()

	if rec := post(t, h, "/v1/schedule", []byte("{not json")); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad json: %d", rec.Code)
	}
	big := bytes.Repeat([]byte("x"), 1024)
	if rec := post(t, h, "/v1/schedule", big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize: %d", rec.Code)
	}

	samples := parseMetricsPage(t, getBody(t, h, "/metrics"))
	if got := samples[`treeschedd_errors_total{kind="decode"}`]; got != "1" {
		t.Errorf(`errors_total{kind="decode"} = %q, want 1`, got)
	}
	if got := samples[`treeschedd_errors_total{kind="limit"}`]; got != "1" {
		t.Errorf(`errors_total{kind="limit"} = %q, want 1`, got)
	}
	if got := samples["treeschedd_errors_total"]; got != "2" {
		t.Errorf("unlabeled errors_total = %q, want 2 (sum of kinds)", got)
	}
}

// TestTraceOptIn checks the ?trace=1 span tree on both single-request
// endpoints: present only when asked for, stage spans in place, durations
// non-negative, and one span shape for both — a top-level
// candidate:<id> span per returned result, with schedule and evaluate
// children.
func TestTraceOptIn(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 11, 25)

	resp := decodeResponse(t, postJSON(t, h, "/v1/schedule", Request{Tree: testTree(t, 12, 25), Processors: 2}))
	if resp.Trace != nil {
		t.Fatal("trace present without ?trace=1")
	}

	resp = decodeResponse(t, postJSON(t, h, "/v1/schedule?trace=1", Request{Tree: tr, Processors: 2}))
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	checkSpanTree(t, resp.Trace, []string{"decode", "hash", "cache", "precompute", "schedule", "evaluate", "encode"})
	checkCandidateSpans(t, resp)

	presp := decodeResponse(t, postJSON(t, h, "/v1/portfolio?trace=1", Request{Tree: tr, Processors: 2}))
	if presp.Error != "" {
		t.Fatal(presp.Error)
	}
	checkSpanTree(t, presp.Trace, []string{"decode", "hash", "cache", "schedule", "evaluate", "encode"})
	checkCandidateSpans(t, presp)
	// Every frontier member is a candidate.
	for _, id := range presp.Frontier {
		if !slices.ContainsFunc(presp.Trace.Spans, func(n *obs.SpanNode) bool { return n.Name == "candidate:"+id.String() }) {
			t.Errorf("frontier member %s has no candidate span", id)
		}
	}

	// A cache hit is traced too (the hit's own spans, not the miss's).
	cresp := decodeResponse(t, postJSON(t, h, "/v1/schedule?trace=1", Request{Tree: tr, Processors: 2}))
	if !cresp.Cached {
		t.Fatal("expected cache hit")
	}
	checkSpanTree(t, cresp.Trace, []string{"decode", "hash", "cache", "encode"})

	// Exact candidate spans carry the explored-node count as the value and
	// it matches the explored_nodes field of the result.
	exact := sched.IDExact
	eresp := decodeResponse(t, postJSON(t, h, "/v1/portfolio?trace=1",
		Request{Tree: testTree(t, 17, 10), Processors: 2, Heuristics: []sched.HeuristicID{exact, sched.IDParSubtrees}}))
	if eresp.Error != "" {
		t.Fatal(eresp.Error)
	}
	var wantExplored int64
	for _, r := range eresp.Results {
		if r.Heuristic == exact {
			wantExplored = r.ExploredNodes
		}
	}
	if wantExplored <= 0 {
		t.Fatalf("exact candidate explored %d nodes, want > 0 (tree too easy for the test)", wantExplored)
	}
	var exactVal int64 = -1
	eresp.Trace.Walk(func(n *obs.SpanNode, _ int) {
		if n.Name == "candidate:"+exact.String() {
			exactVal = n.Value
		}
	})
	if exactVal != wantExplored {
		t.Errorf("exact candidate span value = %d, want explored count %d", exactVal, wantExplored)
	}
}

// checkCandidateSpans asserts resp's trace has exactly one top-level
// candidate:<id> span per result, each with a schedule and an evaluate
// child.
func checkCandidateSpans(t *testing.T, resp Response) {
	t.Helper()
	cands := map[string]*obs.SpanNode{}
	for _, n := range resp.Trace.Spans {
		if id, ok := strings.CutPrefix(n.Name, "candidate:"); ok {
			cands[id] = n
		}
	}
	if len(cands) != len(resp.Results) {
		t.Errorf("%d top-level candidate spans for %d results", len(cands), len(resp.Results))
	}
	for _, r := range resp.Results {
		n, ok := cands[r.Heuristic.String()]
		if !ok {
			t.Errorf("result %s has no top-level candidate span", r.Heuristic)
			continue
		}
		var children []string
		for _, c := range n.Spans {
			children = append(children, c.Name)
		}
		if !slices.Equal(children, []string{"schedule", "evaluate"}) {
			t.Errorf("candidate:%s children %v, want [schedule evaluate]", r.Heuristic, children)
		}
	}
}

// checkSpanTree asserts the tree is rooted at "request", contains every
// wanted span name, and has non-negative offsets and durations throughout.
func checkSpanTree(t *testing.T, root *obs.SpanNode, want []string) {
	t.Helper()
	if root == nil {
		t.Fatal("trace missing from response")
	}
	if root.Name != "request" {
		t.Fatalf("root span %q, want request", root.Name)
	}
	seen := map[string]bool{}
	root.Walk(func(n *obs.SpanNode, _ int) {
		seen[n.Name] = true
		if n.StartUS < 0 || n.DurUS < 0 {
			t.Errorf("span %s has negative time: start %v dur %v", n.Name, n.StartUS, n.DurUS)
		}
	})
	for _, name := range want {
		if !seen[name] {
			t.Errorf("trace missing span %q (have %v)", name, seen)
		}
	}
}

// TestTraceBatchAndLogs checks that batch lines are never traced (the
// NDJSON contract has no per-line trace opt-in) and that the structured
// request log carries the request id echoed in X-Request-Id.
func TestTraceBatchAndLogs(t *testing.T) {
	var logBuf bytes.Buffer
	s := New(Config{Workers: 1, Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	defer s.Close()
	h := s.Handler()

	rec := post(t, h, "/v1/schedule/batch?trace=1", []byte(`{"tree_text":"1 5 2\n1 3 1 1\n","p":2}`+"\n"))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d", rec.Code)
	}
	if strings.Contains(rec.Body.String(), `"trace"`) {
		t.Error("batch line unexpectedly traced")
	}
	rid := rec.Header().Get("X-Request-Id")
	if rid == "" {
		t.Fatal("batch response missing X-Request-Id")
	}
	logs := logBuf.String()
	if !strings.Contains(logs, `"request_id":"`+rid+`"`) ||
		!strings.Contains(logs, `"endpoint":"/v1/schedule/batch"`) {
		t.Errorf("request log missing id %s or endpoint:\n%s", rid, logs)
	}

	rec = postJSON(t, h, "/v1/schedule", Request{Tree: testTree(t, 3, 10), Processors: 2})
	if got := rec.Header().Get("X-Request-Id"); got == "" || got == rid {
		t.Errorf("schedule request id %q not fresh (batch had %s)", got, rid)
	}
}

// TestDebugHandlerServesPprof checks the opt-in debug mux: pprof plus the
// flight recorder.
func TestDebugHandlerServesPprof(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	dh := s.DebugHandler()
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	dh.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index: %d\n%s", rec.Code, rec.Body.String())
	}
	req = httptest.NewRequest(http.MethodGet, "/debug/flight", nil)
	rec = httptest.NewRecorder()
	dh.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"entries"`) {
		t.Fatalf("debug flight: %d\n%s", rec.Code, rec.Body.String())
	}
}
