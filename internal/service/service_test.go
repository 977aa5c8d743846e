package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"treesched/internal/obs"
	"treesched/internal/portfolio"
	"treesched/internal/sched"
	"treesched/internal/tree"
)

func testTree(tb testing.TB, seed int64, n int) *tree.Tree {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	return tree.RandomAttachment(rng, n, tree.WeightSpec{
		WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20,
	})
}

func postJSON(tb testing.TB, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		tb.Fatal(err)
	}
	return post(tb, h, path, buf.Bytes())
}

func post(tb testing.TB, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	tb.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeResponse(tb testing.TB, rec *httptest.ResponseRecorder) Response {
	tb.Helper()
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		tb.Fatalf("response not JSON: %v\n%s", err, rec.Body.String())
	}
	return resp
}

func TestScheduleSingle(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 1, 50)

	rec := postJSON(t, h, "/v1/schedule", Request{ID: "job-1", Tree: tr, Processors: 4})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResponse(t, rec)
	if resp.Error != "" {
		t.Fatalf("unexpected error: %s", resp.Error)
	}
	if resp.ID != "job-1" || resp.Nodes != 50 || resp.Processors != 4 || resp.Cached {
		t.Fatalf("bad envelope: %+v", resp)
	}
	if resp.TreeHash != tr.CanonicalHash() {
		t.Fatalf("tree hash mismatch")
	}
	if len(resp.Results) != 4 {
		t.Fatalf("want the paper's 4 heuristics, got %d", len(resp.Results))
	}
	wantIDs := sched.PaperHeuristics()
	for i, r := range resp.Results {
		if r.Heuristic != wantIDs[i] {
			t.Errorf("result %d: heuristic %v, want %v", i, r.Heuristic, wantIDs[i])
		}
		if r.Error != "" {
			t.Errorf("%s failed: %s", r.Heuristic, r.Error)
		}
		if r.Makespan < resp.Bounds.MakespanLB-1e-9 {
			t.Errorf("%s makespan %g below lower bound %g", r.Heuristic, r.Makespan, resp.Bounds.MakespanLB)
		}
		if r.PeakMemory < resp.Bounds.MemorySeq {
			t.Errorf("%s memory %d below M_seq %d", r.Heuristic, r.PeakMemory, resp.Bounds.MemorySeq)
		}
	}

	// The same submission again is served from the cache, identically.
	rec2 := postJSON(t, h, "/v1/schedule", Request{ID: "job-2", Tree: tr, Processors: 4})
	resp2 := decodeResponse(t, rec2)
	if !resp2.Cached {
		t.Fatalf("second identical submission not served from cache")
	}
	if resp2.ID != "job-2" {
		t.Fatalf("cached response has ID %q, want job-2", resp2.ID)
	}
	if !reflect.DeepEqual(resp.Results, resp2.Results) || !reflect.DeepEqual(resp.Bounds, resp2.Bounds) {
		t.Fatalf("cached response differs from computed one")
	}

	// Different p is a different cache entry.
	resp3 := decodeResponse(t, postJSON(t, h, "/v1/schedule", Request{Tree: tr, Processors: 2}))
	if resp3.Cached {
		t.Fatalf("different p wrongly served from cache")
	}
}

func TestScheduleHeuristicSelectionAndTreeText(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 2, 40)
	var txt bytes.Buffer
	if err := tr.Encode(&txt); err != nil {
		t.Fatal(err)
	}

	req := Request{
		TreeText:   txt.String(),
		Processors: 3,
		Heuristics: []sched.HeuristicID{
			sched.IDSequential, sched.IDOptimalSequential,
			sched.IDMemCapped, sched.IDMemCappedBooking, sched.IDParDeepestFirst,
		},
		MemCapFactor: 2,
	}
	resp := decodeResponse(t, postJSON(t, h, "/v1/schedule", req))
	if resp.Error != "" {
		t.Fatalf("unexpected error: %s", resp.Error)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("want 5 results, got %d", len(resp.Results))
	}
	seq, opt := resp.Results[0], resp.Results[1]
	if seq.PeakMemory != resp.Bounds.MemorySeq {
		t.Errorf("Sequential peak %d != M_seq %d", seq.PeakMemory, resp.Bounds.MemorySeq)
	}
	if opt.PeakMemory > seq.PeakMemory {
		t.Errorf("OptimalSequential peak %d exceeds best postorder %d", opt.PeakMemory, seq.PeakMemory)
	}
	cap := int64(math.Ceil(2 * float64(resp.Bounds.MemorySeq)))
	for _, r := range resp.Results[2:4] {
		if r.Error != "" {
			t.Errorf("%s failed: %s", r.Heuristic, r.Error)
		}
		if r.PeakMemory > cap {
			t.Errorf("%s peak %d exceeds cap %d", r.Heuristic, r.PeakMemory, cap)
		}
	}

	// The JSON and text encodings of the same tree share a cache entry.
	resp2 := decodeResponse(t, postJSON(t, h, "/v1/schedule", Request{
		Tree: tr, Processors: 3,
		Heuristics:   req.Heuristics,
		MemCapFactor: 2,
	}))
	if !resp2.Cached {
		t.Fatalf("JSON encoding of the same tree missed the cache")
	}
}

func TestScheduleRejections(t *testing.T) {
	s := New(Config{MaxBodyBytes: 4096, MaxNodes: 100, MaxProcs: 8})
	defer s.Close()
	h := s.Handler()
	small := testTree(t, 3, 10)

	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"malformed JSON", []byte(`{"tree":`), http.StatusBadRequest},
		{"no tree", mustJSON(t, Request{Processors: 2}), http.StatusBadRequest},
		{"both trees", mustJSON(t, Request{Tree: small, TreeText: "1\n0 -1 1 0 0\n", Processors: 2}), http.StatusBadRequest},
		{"bad tree_text", mustJSON(t, Request{TreeText: "not a tree", Processors: 2}), http.StatusBadRequest},
		{"cyclic tree", []byte(`{"tree":{"parent":[-1,2,1],"w":[1,1,1]},"p":2}`), http.StatusBadRequest},
		{"empty tree", []byte(`{"tree":{"parent":[],"w":[]},"p":2}`), http.StatusBadRequest},
		{"p missing", mustJSON(t, Request{Tree: small}), http.StatusBadRequest},
		{"p too large", mustJSON(t, Request{Tree: small, Processors: 9}), http.StatusBadRequest},
		{"unknown heuristic", []byte(`{"tree":{"parent":[-1,0],"w":[1,1]},"p":2,"heuristics":["Nope"]}`), http.StatusBadRequest},
		{"memcap without factor", mustJSON(t, Request{Tree: small, Processors: 2, Heuristics: []sched.HeuristicID{sched.IDMemCapped}}), http.StatusBadRequest},
		{"bad objective", []byte(`{"tree":{"parent":[-1,0],"w":[1,1]},"p":2,"objective":"maximize_vibes"}`), http.StatusBadRequest},
		{"objective out of domain", []byte(`{"tree":{"parent":[-1,0],"w":[1,1]},"p":2,"objective":"weighted:1.5"}`), http.StatusBadRequest},
		{"tree too large", mustJSON(t, Request{Tree: testTree(t, 4, 101), Processors: 2}), http.StatusRequestEntityTooLarge},
		{"tree_text declares huge count", []byte(`{"tree_text":"1000000000\n","p":2}`), http.StatusRequestEntityTooLarge},
		{"tree_text declares absurd count", []byte(`{"tree_text":"9000000000000000000\n","p":2}`), http.StatusRequestEntityTooLarge},
		{"body too large", append([]byte(`{"tree_text":"`), bytes.Repeat([]byte("x"), 5000)...), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		rec := post(t, h, "/v1/schedule", tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
			continue
		}
		if resp := decodeResponse(t, rec); resp.Error == "" {
			t.Errorf("%s: no error message in %s", tc.name, rec.Body.String())
		}
	}

	// Wrong method on every endpoint.
	for _, path := range []string{"/v1/schedule", "/v1/schedule/batch", "/v1/portfolio"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, rec.Code)
		}
	}
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func TestBatchStreamsThousandTrees(t *testing.T) {
	s := New(Config{Workers: 8, CacheSize: 4096})
	defer s.Close()
	h := s.Handler()

	const nTrees = 1000
	var batch bytes.Buffer
	enc := json.NewEncoder(&batch)
	for i := 0; i < nTrees; i++ {
		tr := testTree(t, int64(i), 20+i%30)
		if err := enc.Encode(Request{ID: fmt.Sprintf("t%04d", i), Tree: tr, Processors: 4}); err != nil {
			t.Fatal(err)
		}
	}
	input := batch.Bytes()

	runBatch := func() []Response {
		rec := post(t, h, "/v1/schedule/batch", input)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch status %d", rec.Code)
		}
		var out []Response
		sc := bufio.NewScanner(rec.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
		for sc.Scan() {
			var resp Response
			if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
				t.Fatalf("bad NDJSON line: %v", err)
			}
			out = append(out, resp)
		}
		return out
	}

	first := runBatch()
	if len(first) != nTrees {
		t.Fatalf("got %d response lines, want %d", len(first), nTrees)
	}
	for i, resp := range first {
		if want := fmt.Sprintf("t%04d", i); resp.ID != want {
			t.Fatalf("line %d out of order: id %q, want %q", i, resp.ID, want)
		}
		if resp.Error != "" {
			t.Fatalf("line %d failed: %s", i, resp.Error)
		}
		if len(resp.Results) != 4 {
			t.Fatalf("line %d: %d results", i, len(resp.Results))
		}
	}

	// The identical batch again: every line comes from the cache with
	// identical results.
	second := runBatch()
	if len(second) != nTrees {
		t.Fatalf("second run: %d lines", len(second))
	}
	for i := range second {
		if !second[i].Cached {
			t.Fatalf("line %d of repeated batch not cached", i)
		}
		if !reflect.DeepEqual(first[i].Results, second[i].Results) {
			t.Fatalf("line %d: cached results differ", i)
		}
	}

	// Cache hits are observable on /metrics.
	metrics := getBody(t, h, "/metrics")
	if !strings.Contains(metrics, fmt.Sprintf("treeschedd_cache_hits_total %d", nTrees)) {
		t.Errorf("metrics missing %d cache hits:\n%s", nTrees, metrics)
	}
	if !strings.Contains(metrics, fmt.Sprintf("treeschedd_trees_scheduled_total %d", nTrees)) {
		t.Errorf("metrics missing %d scheduled trees:\n%s", nTrees, metrics)
	}
	if !strings.Contains(metrics, "treeschedd_cache_hit_ratio 0.5") {
		t.Errorf("metrics missing hit ratio 0.5:\n%s", metrics)
	}
}

func TestBatchBadLinesDoNotBreakStream(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 7, 15)

	var batch bytes.Buffer
	enc := json.NewEncoder(&batch)
	enc.Encode(Request{ID: "ok-1", Tree: tr, Processors: 2})
	batch.WriteString("this is not json\n")
	batch.WriteString("\n") // blank lines are skipped, not answered
	enc.Encode(Request{ID: "bad-p", Tree: tr, Processors: 0})
	enc.Encode(Request{ID: "ok-2", Tree: tr, Processors: 2})

	rec := post(t, h, "/v1/schedule/batch", batch.Bytes())
	var out []Response
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		out = append(out, resp)
	}
	if len(out) != 4 {
		t.Fatalf("got %d lines, want 4", len(out))
	}
	if out[0].ID != "ok-1" || out[0].Error != "" {
		t.Errorf("line 0: %+v", out[0])
	}
	if out[1].Error == "" {
		t.Errorf("line 1 (malformed) has no error")
	}
	if out[2].ID != "bad-p" || out[2].Error == "" {
		t.Errorf("line 2 (p=0) not rejected: %+v", out[2])
	}
	if out[3].ID != "ok-2" || out[3].Error != "" {
		t.Errorf("line 3: %+v", out[3])
	}
}

// TestBatchFullDuplexOverSocket keeps a batch's request body open on a
// real connection until the first answer line has arrived, as a client
// streaming a long batch does. Go's HTTP/1 server discards the unread rest
// of a body at the handler's first write unless full duplex is enabled, so
// every line sent after the first answer must still be read and answered,
// one line per request line, in order.
func TestBatchFullDuplexOverSocket(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 6
	lines := make([][]byte, n)
	for i := range lines {
		b, err := json.Marshal(Request{ID: fmt.Sprintf("b%d", i), Tree: testTree(t, int64(200+i), 30), Processors: 2})
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = append(b, '\n')
	}
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	go pw.Write(lines[0])
	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		done <- result{resp, err}
	}()
	var res result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Error("no answer within 5s while the request body was still open")
		for _, l := range lines[1:] {
			pw.Write(l)
		}
		pw.Close()
		res = <-done
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer res.resp.Body.Close()
	br := bufio.NewReader(res.resp.Body)
	first, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading the first answer line: %v", err)
	}
	// The first answer is in; only now does the client send the rest.
	for _, l := range lines[1:] {
		pw.Write(l)
	}
	pw.Close()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("reading the remaining answer lines: %v", err)
	}
	got := append([]string{string(bytes.TrimSpace(first))}, strings.Split(strings.TrimSpace(string(rest)), "\n")...)
	if len(got) != n {
		t.Fatalf("got %d answer lines for %d request lines:\n%s", len(got), n, strings.Join(got, "\n"))
	}
	for i, line := range got {
		var resp Response
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			t.Fatalf("answer line %d not JSON: %v\n%s", i, err, line)
		}
		if want := fmt.Sprintf("b%d", i); resp.ID != want || resp.Error != "" {
			t.Errorf("answer line %d: id %q error %q, want id %q and no error", i, resp.ID, resp.Error, want)
		}
	}
}

func TestBatchEnforcesLineLimit(t *testing.T) {
	// MaxBodyBytes below bufio's 64 KiB default buffer must still cap the
	// batch line size.
	s := New(Config{Workers: 2, MaxBodyBytes: 4096})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 21, 10)

	// A line of exactly MaxBodyBytes must pass, matching the single
	// endpoint's inclusive limit; the first longer line kills the stream.
	atLimit := mustJSON(t, Request{ID: "pad", Tree: tr, Processors: 2})
	atLimit = append(atLimit[:len(atLimit)-1], []byte(`,"tree_text":"`)...)
	atLimit = append(atLimit, bytes.Repeat([]byte(" "), 4096-len(atLimit)-2)...)
	atLimit = append(atLimit, '"', '}')
	if len(atLimit) != 4096 {
		t.Fatalf("at-limit line is %d bytes", len(atLimit))
	}

	var batch bytes.Buffer
	json.NewEncoder(&batch).Encode(Request{ID: "ok", Tree: tr, Processors: 2})
	batch.Write(atLimit)
	batch.WriteByte('\n')
	batch.WriteString(`{"tree_text":"` + strings.Repeat("x", 50_000) + `"}` + "\n")

	rec := post(t, h, "/v1/schedule/batch", batch.Bytes())
	var out []Response
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		out = append(out, resp)
	}
	if len(out) != 3 {
		t.Fatalf("got %d lines, want 3 (good line + at-limit rejection + stream error)", len(out))
	}
	if out[0].ID != "ok" || out[0].Error != "" {
		t.Errorf("line 0: %+v", out[0])
	}
	// The at-limit line frames fine; it fails only semantically (both tree
	// and tree_text set), proving the scanner did not choke on it.
	if out[1].ID != "pad" || !strings.Contains(out[1].Error, "exactly one of tree and tree_text") {
		t.Errorf("at-limit line mishandled: %+v", out[1])
	}
	if !strings.Contains(out[2].Error, "token too long") {
		t.Errorf("oversized line not rejected: %+v", out[2])
	}
	// The stream-ending line carries the id of the line that failed to
	// frame, and the flight recorder holds it as a limit error.
	wantRid := rec.Header().Get("X-Request-Id") + ".3"
	if out[2].RequestID != wantRid {
		t.Errorf("framing-error line request_id = %q, want %q", out[2].RequestID, wantRid)
	}
	var framed *obs.FlightEntry
	for _, e := range s.metrics.flight.Snapshot() {
		if e.RequestID == wantRid {
			framed = &e
		}
	}
	if framed == nil || framed.Endpoint != epBatch || framed.ErrorKind != errKindLimit {
		t.Errorf("framing-error line's flight entry = %+v, want a %s entry of kind %s", framed, epBatch, errKindLimit)
	}
}

func TestConcurrentIdenticalRequestsAreDeterministic(t *testing.T) {
	// Cache disabled: every request recomputes, so this checks that the
	// heuristics themselves are deterministic under concurrency.
	s := New(Config{Workers: 4, CacheSize: -1})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 11, 80)
	body := mustJSON(t, Request{Tree: tr, Processors: 4})

	const goroutines = 16
	bodies := make([]string, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	// The server-assigned request_id is per-request by design; strip it so
	// the comparison covers exactly the scheduling result.
	ridField := regexp.MustCompile(`"request_id":"[^"]*",?`)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			bodies[g] = ridField.ReplaceAllString(post(t, h, "/v1/schedule", body).Body.String(), "")
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if bodies[g] != bodies[0] {
			t.Fatalf("response %d differs:\n%s\nvs\n%s", g, bodies[g], bodies[0])
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := New(Config{Workers: 3})
	defer s.Close()
	h := s.Handler()

	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.Unmarshal([]byte(getBody(t, h, "/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Workers != 3 {
		t.Fatalf("healthz: %+v", health)
	}

	metrics := getBody(t, h, "/metrics")
	for _, want := range []string{
		"treeschedd_requests_total{endpoint=\"/v1/schedule\"} 0",
		"treeschedd_cache_hits_total 0",
		"treeschedd_inflight_jobs 0",
		"treeschedd_uptime_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestBatchSurvivesHostileLines(t *testing.T) {
	// Hostile per-line payloads must cost one error line, never the
	// process: the worker-side recover and the DecodeMax allocation cap.
	s := New(Config{Workers: 2, MaxNodes: 1000})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 23, 12)

	var batch bytes.Buffer
	batch.WriteString(`{"id":"huge","tree_text":"9000000000000000000\n","p":1}` + "\n")
	json.NewEncoder(&batch).Encode(Request{ID: "ok", Tree: tr, Processors: 2})

	rec := post(t, h, "/v1/schedule/batch", batch.Bytes())
	var out []Response
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		out = append(out, resp)
	}
	if len(out) != 2 {
		t.Fatalf("got %d lines, want 2", len(out))
	}
	if out[0].ID != "huge" || !strings.Contains(out[0].Error, "exceeds limit") {
		t.Errorf("hostile line: %+v", out[0])
	}
	if out[1].ID != "ok" || out[1].Error != "" {
		t.Errorf("line after hostile one broken: %+v", out[1])
	}
}

func TestSafeRunContainsPanics(t *testing.T) {
	// A nil tree makes run() panic; the pool-worker wrapper must convert
	// that into an error response instead of crashing the daemon.
	s := New(Config{Workers: 1})
	defer s.Close()
	j := &job{req: Request{ID: "boom"}, opts: sched.Options{Processors: 1}}
	resp := s.safeRun(context.Background(), j)
	if resp == nil || resp.ID != "boom" || !strings.Contains(resp.Error, "panic") {
		t.Fatalf("panic not contained: %+v", resp)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	r := &Response{}
	c.add("a", r)
	c.add("b", r)
	if _, ok := c.get("a"); !ok { // touches a, making b the eviction victim
		t.Fatal("a missing")
	}
	c.add("c", r)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a wrongly evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2", c.len())
	}
}

func TestPortfolioEndpoint(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 31, 120)

	rec := postJSON(t, h, "/v1/portfolio", Request{ID: "pf-1", Tree: tr, Processors: 4})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResponse(t, rec)
	if resp.Error != "" {
		t.Fatalf("unexpected error: %s", resp.Error)
	}
	// Default candidate set: the paper's four + the Sequential baseline.
	want := portfolio.DefaultCandidates()
	if len(resp.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(resp.Results), len(want))
	}
	for i, r := range resp.Results {
		if r.Heuristic != want[i] {
			t.Errorf("result %d: %v, want %v", i, r.Heuristic, want[i])
		}
		if r.Error != "" {
			t.Errorf("%v failed: %s", r.Heuristic, r.Error)
		}
	}
	if resp.Objective == nil || *resp.Objective != portfolio.MinMakespan() {
		t.Errorf("objective not defaulted to min_makespan: %v", resp.Objective)
	}
	if len(resp.Frontier) == 0 || resp.Winner == nil {
		t.Fatalf("missing frontier/winner: %+v", resp)
	}

	// Verify the frontier against the results: every frontier member is
	// non-dominated, every non-member is dominated or a duplicate.
	byID := make(map[sched.HeuristicID]HeuristicResult, len(resp.Results))
	for _, r := range resp.Results {
		byID[r.Heuristic] = r
	}
	onFrontier := make(map[sched.HeuristicID]bool)
	for _, id := range resp.Frontier {
		onFrontier[id] = true
	}
	dominates := func(a, b HeuristicResult) bool {
		return a.Makespan <= b.Makespan && a.PeakMemory <= b.PeakMemory &&
			(a.Makespan < b.Makespan || a.PeakMemory < b.PeakMemory)
	}
	for _, id := range resp.Frontier {
		for _, r := range resp.Results {
			if dominates(r, byID[id]) {
				t.Errorf("frontier member %v dominated by %v", id, r.Heuristic)
			}
		}
	}
	for _, r := range resp.Results {
		if onFrontier[r.Heuristic] {
			continue
		}
		excludable := false
		for _, fid := range resp.Frontier {
			f := byID[fid]
			if dominates(f, r) || (f.Makespan == r.Makespan && f.PeakMemory == r.PeakMemory) {
				excludable = true
				break
			}
		}
		if !excludable {
			t.Errorf("%v excluded from frontier but not dominated", r.Heuristic)
		}
	}

	// min_makespan winner: nothing is faster.
	w := byID[*resp.Winner]
	for _, r := range resp.Results {
		if r.Error == "" && r.Makespan < w.Makespan {
			t.Errorf("winner %v (%g) beaten by %v (%g)", *resp.Winner, w.Makespan, r.Heuristic, r.Makespan)
		}
	}

	// A repeated identical request is fully cache-served, winner included.
	resp2 := decodeResponse(t, postJSON(t, h, "/v1/portfolio", Request{ID: "pf-2", Tree: tr, Processors: 4}))
	if !resp2.Cached {
		t.Fatal("repeated portfolio request not served from cache")
	}
	if !reflect.DeepEqual(resp.Results, resp2.Results) || !reflect.DeepEqual(resp.Frontier, resp2.Frontier) ||
		resp2.Winner == nil || *resp2.Winner != *resp.Winner {
		t.Fatal("cached portfolio response differs from computed one")
	}

	// A different objective is a different cache entry and may pick a
	// different winner; min_memory must select the Sequential baseline
	// (its peak is M_seq, which nothing undercuts in this candidate set).
	obj := portfolio.MinMemory()
	resp3 := decodeResponse(t, postJSON(t, h, "/v1/portfolio", Request{Tree: tr, Processors: 4, Objective: &obj}))
	if resp3.Cached {
		t.Fatal("different objective wrongly shared a cache entry")
	}
	if resp3.Winner == nil || *resp3.Winner != sched.IDSequential {
		t.Errorf("min_memory winner %v, want Sequential", resp3.Winner)
	}
	if wr := byID[sched.IDSequential]; wr.PeakMemory != resp3.Bounds.MemorySeq {
		t.Errorf("Sequential peak %d != M_seq %d", wr.PeakMemory, resp3.Bounds.MemorySeq)
	}
}

func TestScheduleObjectiveAndAutoTriggerPortfolio(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 37, 80)

	// The Auto pseudo-heuristic on the plain schedule endpoint expands to
	// the default portfolio with a min_makespan winner.
	resp := decodeResponse(t, post(t, h, "/v1/schedule",
		mustJSON(t, Request{Tree: tr, Processors: 4, Heuristics: []sched.HeuristicID{sched.IDAuto}})))
	if resp.Error != "" {
		t.Fatalf("Auto request failed: %s", resp.Error)
	}
	if len(resp.Results) != len(portfolio.DefaultCandidates()) || resp.Winner == nil || len(resp.Frontier) == 0 {
		t.Fatalf("Auto did not produce a portfolio response: %+v", resp)
	}

	// An explicit objective with an explicit candidate list races exactly
	// that list; memory_under_deadline respects its constraint.
	obj := portfolio.MemoryUnderDeadline(1.5)
	resp2 := decodeResponse(t, postJSON(t, h, "/v1/schedule", Request{
		Tree: tr, Processors: 4,
		Heuristics: []sched.HeuristicID{sched.IDParSubtrees, sched.IDParDeepestFirst},
		Objective:  &obj,
	}))
	if resp2.Error != "" {
		t.Fatalf("objective request failed: %s", resp2.Error)
	}
	if len(resp2.Results) != 2 || resp2.Winner == nil {
		t.Fatalf("bad portfolio response: %+v", resp2)
	}
	var w HeuristicResult
	for _, r := range resp2.Results {
		if r.Heuristic == *resp2.Winner {
			w = r
		}
	}
	feasible := false
	for _, r := range resp2.Results {
		if r.Makespan <= 1.5*resp2.Bounds.MakespanLB {
			feasible = true
		}
	}
	if feasible && w.Makespan > 1.5*resp2.Bounds.MakespanLB {
		t.Errorf("winner %v misses the deadline despite a feasible candidate", *resp2.Winner)
	}

	// Auto inside a batch line works the same way.
	var batch bytes.Buffer
	json.NewEncoder(&batch).Encode(Request{ID: "auto", Tree: tr, Processors: 2, Heuristics: []sched.HeuristicID{sched.IDAuto}})
	json.NewEncoder(&batch).Encode(Request{ID: "plain", Tree: tr, Processors: 2})
	rec := post(t, h, "/v1/schedule/batch", batch.Bytes())
	var out []Response
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var r Response
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	if len(out) != 2 {
		t.Fatalf("%d batch lines", len(out))
	}
	if out[0].Winner == nil || len(out[0].Frontier) == 0 {
		t.Errorf("batch Auto line missing portfolio fields: %+v", out[0])
	}
	if out[1].Winner != nil || out[1].Frontier != nil {
		t.Errorf("plain batch line grew portfolio fields: %+v", out[1])
	}
}

func getBody(tb testing.TB, h http.Handler, path string) string {
	tb.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET %s: status %d", path, rec.Code)
	}
	return rec.Body.String()
}
