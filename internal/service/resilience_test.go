package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"treesched/internal/resilience"
	"treesched/internal/resilience/chaos"
	"treesched/internal/sched"
)

// mustChaos parses a chaos spec or fails the test.
func mustChaos(tb testing.TB, spec string) *chaos.Injector {
	tb.Helper()
	in, err := chaos.Parse(spec)
	if err != nil {
		tb.Fatalf("chaos spec %q: %v", spec, err)
	}
	return in
}

// sampleValue fetches one sample ("name" or "name{labels}") from a parsed
// metrics page, defaulting to "0" when the sample is absent.
func sampleValue(samples map[string]string, key string) string {
	if v, ok := samples[key]; ok {
		return v
	}
	return "0"
}

func TestConfigResilienceDefaults(t *testing.T) {
	cfg := Config{Workers: 3}.withDefaults()
	if cfg.BatchWriteTimeout != DefaultBatchWriteTimeout {
		t.Errorf("BatchWriteTimeout default = %v, want %v", cfg.BatchWriteTimeout, DefaultBatchWriteTimeout)
	}
	if cfg.QueueDepth != 3*DefaultQueueDepthPerWorker {
		t.Errorf("QueueDepth default = %d, want %d", cfg.QueueDepth, 3*DefaultQueueDepthPerWorker)
	}
	if cfg.QueueTarget != DefaultQueueTarget || cfg.DegradeLight != DefaultDegradeLight ||
		cfg.DegradeHeavy != DefaultDegradeHeavy {
		t.Errorf("queue/ladder defaults wrong: %+v", cfg)
	}
	if cfg.BreakerFailures != DefaultBreakerFailures || cfg.BreakerCooldown != DefaultBreakerCooldown {
		t.Errorf("breaker defaults wrong: %+v", cfg)
	}
	// Explicit values pass through; negatives keep their disable meaning.
	cfg = Config{BatchWriteTimeout: 7 * time.Second, QueueTarget: -1, DegradeLight: -1}.withDefaults()
	if cfg.BatchWriteTimeout != 7*time.Second || cfg.QueueTarget != -1 || cfg.DegradeLight != -1 {
		t.Errorf("explicit resilience config not preserved: %+v", cfg)
	}
	s := New(Config{DegradeLight: -1})
	defer s.Close()
	if s.ladder != nil {
		t.Error("DegradeLight < 0 should disable the ladder")
	}
}

// TestRequestTimeoutHeaderDeadline drives a request into its time budget:
// every worker job sleeps 50ms (chaos latency, probability 1) while the
// X-Timeout-Ms header grants only 10ms, so the post-sleep budget check
// must answer 503 with Retry-After and error kind "deadline".
func TestRequestTimeoutHeaderDeadline(t *testing.T) {
	s := New(Config{Workers: 1, Chaos: mustChaos(t, "seed=1,latency=1:50ms")})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 1, 30)

	body, _ := json.Marshal(Request{Tree: tr, Processors: 2})
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(string(body)))
	req.Header.Set("X-Timeout-Ms", "10")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 deadline response missing Retry-After")
	}
	resp := decodeResponse(t, rec)
	if !strings.Contains(resp.Error, "deadline exceeded") {
		t.Errorf("error = %q, want a deadline message", resp.Error)
	}
	samples := parseMetricsPage(t, getBody(t, h, "/metrics"))
	if got := sampleValue(samples, `treeschedd_errors_total{kind="deadline"}`); got != "1" {
		t.Errorf(`errors_total{kind="deadline"} = %s, want 1`, got)
	}

	// A malformed header is rejected before any work.
	req = httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(string(body)))
	req.Header.Set("X-Timeout-Ms", "soon")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad X-Timeout-Ms: status %d, want 400", rec.Code)
	}
}

// TestTimeoutMSField exercises the wire-level budget: timeout_ms counts
// from request arrival, so a 50ms injected sleep exhausts a 10ms field
// budget even though the field is applied after decode.
func TestTimeoutMSField(t *testing.T) {
	s := New(Config{Workers: 1, Chaos: mustChaos(t, "seed=2,latency=1:50ms")})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 2, 30)

	var raw map[string]any
	b, _ := json.Marshal(Request{Tree: tr, Processors: 2})
	json.Unmarshal(b, &raw)
	raw["timeout_ms"] = 10
	body, _ := json.Marshal(raw)
	rec := post(t, h, "/v1/schedule", body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeResponse(t, rec); !strings.Contains(resp.Error, "deadline exceeded") {
		t.Errorf("error = %q, want a deadline message", resp.Error)
	}
}

func TestTimeoutMSNegativeRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	tr := testTree(t, 3, 10)
	var raw map[string]any
	b, _ := json.Marshal(Request{Tree: tr, Processors: 2})
	json.Unmarshal(b, &raw)
	raw["timeout_ms"] = -5
	body, _ := json.Marshal(raw)
	rec := post(t, s.Handler(), "/v1/schedule", body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeResponse(t, rec); !strings.Contains(resp.Error, "timeout_ms") {
		t.Errorf("error = %q, want a timeout_ms message", resp.Error)
	}
}

// TestShedQueueFull fills the admission window and checks that the next
// request is shed with 503 + Retry-After, counted in both the admission
// and error families, and that batch lines shed in place as error lines.
func TestShedQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 4, 20)

	// Occupy the only window slot directly; the server under test then
	// sees a full window without any timing games.
	if dec := s.adm.Admit(time.Now().UnixNano(), resilience.PriorityHigh); dec != resilience.Admitted {
		t.Fatalf("setup admit: %v", dec)
	}
	defer s.adm.Done()

	rec := postJSON(t, h, "/v1/schedule", Request{Tree: tr, Processors: 2})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if resp := decodeResponse(t, rec); !strings.Contains(resp.Error, "shed") {
		t.Errorf("error = %q, want a shed message", resp.Error)
	}

	// A batch against the full window sheds every line in place.
	line, _ := json.Marshal(Request{ID: "l1", Tree: tr, Processors: 2})
	rec = post(t, h, "/v1/schedule/batch", append(line, '\n'))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d", rec.Code)
	}
	var lineResp Response
	if err := json.Unmarshal([]byte(strings.TrimSpace(rec.Body.String())), &lineResp); err != nil {
		t.Fatalf("batch line not JSON: %v", err)
	}
	if !strings.Contains(lineResp.Error, "shed") || lineResp.ID != "" {
		t.Errorf("batch line = %+v, want a shed error line", lineResp)
	}

	samples := parseMetricsPage(t, getBody(t, h, "/metrics"))
	if got := sampleValue(samples, `treeschedd_admission_total{decision="shed_queue_full"}`); got != "2" {
		t.Errorf(`admission_total{decision="shed_queue_full"} = %s, want 2`, got)
	}
	if got := sampleValue(samples, `treeschedd_errors_total{kind="shed"}`); got != "2" {
		t.Errorf(`errors_total{kind="shed"} = %s, want 2`, got)
	}
}

// TestOverloadShedsFastAndReadyzDrains is the overload end-to-end: with
// the single worker pinned and the shedder in an overload episode, new
// requests are rejected in bounded time (far under the 50ms budget), the
// rejection is visible in /metrics and /readyz turns 503 so a load
// balancer would drain the node; once the queue drains, /readyz recovers.
func TestOverloadShedsFastAndReadyzDrains(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 5, 20)

	// Pin the worker and hold one window slot, as a stuck job would.
	if dec := s.admit(resilience.PriorityHigh); dec != resilience.Admitted {
		t.Fatalf("setup admit: %v", dec)
	}
	// release runs before the deferred Close, so a failed assertion below
	// cannot leave Close waiting on the pinned worker.
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	started := make(chan struct{})
	s.submit(func() { close(started); <-block })
	// submit observes the job's own (near-zero) queue wait on the worker
	// before the job runs; wait for the job to start so that observation
	// cannot land after the synthetic overload below and end the episode.
	<-started
	// Drive the shedder into an overload episode with two observed
	// dequeue waits far over target, a full interval apart.
	now := time.Now().UnixNano()
	s.adm.Observe(now, time.Second)
	s.adm.Observe(now+int64(10*DefaultQueueTarget), time.Second)
	if !s.adm.Shedding() {
		t.Fatal("shedder not in overload episode after sustained bad waits")
	}

	if rec := getRec(t, h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz status %d during overload, want 503: %s", rec.Code, rec.Body.String())
	}

	start := time.Now()
	rec := postJSON(t, h, "/v1/schedule", Request{Tree: tr, Processors: 2})
	shedLatency := time.Since(start)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if shedLatency > 50*time.Millisecond {
		t.Errorf("shed response took %v, want < 50ms", shedLatency)
	}

	samples := parseMetricsPage(t, getBody(t, h, "/metrics"))
	if got := sampleValue(samples, `treeschedd_admission_total{decision="shed_overload"}`); got != "1" {
		t.Errorf(`admission_total{decision="shed_overload"} = %s, want 1`, got)
	}
	if got := sampleValue(samples, "treeschedd_admission_shedding"); got != "1" {
		t.Errorf("admission_shedding gauge = %s, want 1", got)
	}

	// Drain: release the worker, let the window empty, and feed the
	// shedder one healthy dequeue wait; readiness must recover.
	release()
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.Occupancy() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission window did not drain")
		}
		time.Sleep(time.Millisecond)
	}
	s.adm.Observe(time.Now().UnixNano(), 0)
	if s.adm.Shedding() {
		t.Fatal("shedder still in overload episode after a healthy wait")
	}
	if rec := getRec(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz status %d after drain, want 200", rec.Code)
	}
}

func getRec(tb testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	tb.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestReadyzShutdown(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	if rec := getRec(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz status %d on a fresh server, want 200", rec.Code)
	}
	s.BeginShutdown()
	rec := getRec(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz status %d after BeginShutdown, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "shutting_down") {
		t.Errorf("/readyz body %q, want shutting_down", rec.Body.String())
	}
}

// TestDegradationLadder drives the ladder with synthetic queue waits and
// checks each rung: top-3 trims the portfolio race, single runs one
// heuristic, both are named in the degraded field, and neither lands in
// the cache.
func TestDegradationLadder(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 6, 40)
	full := decodeResponse(t, postJSON(t, h, "/v1/portfolio", Request{Tree: tr, Processors: 2}))
	if full.Error != "" || len(full.Degraded) != 0 {
		t.Fatalf("undegraded portfolio response: %+v", full)
	}
	fullCandidates := len(full.Results)
	if fullCandidates <= 3 {
		t.Fatalf("default portfolio has %d candidates; the ladder test needs > 3", fullCandidates)
	}

	// Step up to top-3: feed smoothed pressure past DegradeLight.
	now := time.Now().UnixNano()
	for i := 0; i < 20 && s.ladder.Level() < resilience.DegradeTop3; i++ {
		now += int64(time.Millisecond)
		s.ladder.Observe(now, 2*DefaultDegradeLight)
	}
	if s.ladder.Level() != resilience.DegradeTop3 {
		t.Fatalf("ladder level %d, want DegradeTop3", s.ladder.Level())
	}
	tr2 := testTree(t, 7, 40)
	resp := decodeResponse(t, postJSON(t, h, "/v1/portfolio", Request{Tree: tr2, Processors: 2}))
	if resp.Error != "" {
		t.Fatalf("degraded request failed: %s", resp.Error)
	}
	if len(resp.Results) != 3 {
		t.Errorf("top-3 degraded race ran %d candidates, want 3", len(resp.Results))
	}
	if len(resp.Degraded) != 1 || resp.Degraded[0] != "portfolio_top3" {
		t.Errorf("degraded = %v, want [portfolio_top3]", resp.Degraded)
	}
	if resp.Winner == nil {
		t.Error("degraded response has no winner")
	}

	// Step up to single-heuristic.
	for i := 0; i < 40 && s.ladder.Level() < resilience.DegradeSingle; i++ {
		now += int64(time.Millisecond)
		s.ladder.Observe(now, 2*DefaultDegradeHeavy)
	}
	if s.ladder.Level() != resilience.DegradeSingle {
		t.Fatalf("ladder level %d, want DegradeSingle", s.ladder.Level())
	}
	tr3 := testTree(t, 8, 40)
	resp = decodeResponse(t, postJSON(t, h, "/v1/portfolio", Request{Tree: tr3, Processors: 2}))
	if resp.Error != "" {
		t.Fatalf("degraded request failed: %s", resp.Error)
	}
	if len(resp.Results) != 1 {
		t.Errorf("single-heuristic degraded race ran %d candidates, want 1", len(resp.Results))
	}
	if len(resp.Degraded) != 1 || resp.Degraded[0] != "portfolio_single" {
		t.Errorf("degraded = %v, want [portfolio_single]", resp.Degraded)
	}

	// Degraded responses must not poison the cache: replaying the top-3
	// request after recovery must compute the full answer fresh.
	if got := s.cache.len(); got != 1 {
		t.Errorf("cache holds %d entries, want only the full-quality one", got)
	}
	samples := parseMetricsPage(t, getBody(t, h, "/metrics"))
	if got := sampleValue(samples, `treeschedd_degraded_total{action="portfolio_top3"}`); got != "1" {
		t.Errorf(`degraded_total{action="portfolio_top3"} = %s, want 1`, got)
	}
	if got := sampleValue(samples, `treeschedd_degraded_total{action="portfolio_single"}`); got != "1" {
		t.Errorf(`degraded_total{action="portfolio_single"} = %s, want 1`, got)
	}

	// The ladder trims objective races only: a plain request races all of
	// its heuristics at any level.
	plain := decodeResponse(t, postJSON(t, h, "/v1/schedule", Request{Tree: tr3, Processors: 2}))
	if plain.Error != "" || len(plain.Results) != len(sched.PaperHeuristics()) || len(plain.Degraded) != 0 {
		t.Errorf("plain request under DegradeSingle: %d results, degraded %v, error %q; want the paper's four, undegraded",
			len(plain.Results), plain.Degraded, plain.Error)
	}
}

// TestBreakerSkipsExact trips the Exact candidate's circuit breaker and
// checks that portfolio requests skip the candidate (naming the skip in
// degraded), that an Exact-only selection still runs it, and that the
// breaker state is visible in /metrics.
func TestBreakerSkipsExact(t *testing.T) {
	s := New(Config{Workers: 1, BreakerFailures: 2, BreakerCooldown: time.Hour})
	defer s.Close()
	h := s.Handler()
	// 12 nodes proves within ~6k explored nodes, far inside the default
	// budget, so the Exact-only run below deterministically closes the
	// breaker again.
	tr := testTree(t, 9, 12)

	now := time.Now().UnixNano()
	s.breaker.Record(now, false)
	s.breaker.Record(now, false)
	if s.breaker.State() != resilience.BreakerOpen {
		t.Fatalf("breaker state %d after threshold failures, want open", s.breaker.State())
	}

	resp := decodeResponse(t, postJSON(t, h, "/v1/portfolio", Request{
		Tree: tr, Processors: 2,
		Heuristics: []sched.HeuristicID{sched.IDExact, sched.IDParSubtrees, sched.IDParDeepestFirst},
	}))
	if resp.Error != "" {
		t.Fatalf("breaker-degraded request failed: %s", resp.Error)
	}
	if len(resp.Degraded) != 1 || resp.Degraded[0] != "exact_breaker" {
		t.Errorf("degraded = %v, want [exact_breaker]", resp.Degraded)
	}
	for _, r := range resp.Results {
		if r.Heuristic == sched.IDExact {
			t.Error("Exact candidate ran despite the open breaker")
		}
	}
	if s.cache.len() != 0 {
		t.Error("breaker-degraded response was cached")
	}

	// Exact as the sole selection is never stripped: degrading to nothing
	// would be an error, not a cheaper answer. Its success closes the
	// breaker again.
	resp = decodeResponse(t, postJSON(t, h, "/v1/portfolio", Request{
		Tree: tr, Processors: 2, Heuristics: []sched.HeuristicID{sched.IDExact},
	}))
	if resp.Error != "" {
		t.Fatalf("Exact-only request failed: %s", resp.Error)
	}
	if len(resp.Results) != 1 || resp.Results[0].Heuristic != sched.IDExact {
		t.Fatalf("Exact-only results: %+v", resp.Results)
	}
	if !resp.Results[0].Proven {
		t.Fatalf("Exact did not prove the 12-node instance: %+v", resp.Results[0])
	}
	if s.breaker.State() != resilience.BreakerClosed {
		t.Errorf("breaker state %d after a proven Exact run, want closed", s.breaker.State())
	}

	samples := parseMetricsPage(t, getBody(t, h, "/metrics"))
	if got := sampleValue(samples, `treeschedd_degraded_total{action="exact_breaker"}`); got != "1" {
		t.Errorf(`degraded_total{action="exact_breaker"} = %s, want 1`, got)
	}
	if got := sampleValue(samples, "treeschedd_breaker_opens_total"); got != "1" {
		t.Errorf("breaker_opens_total = %s, want 1", got)
	}
}

// TestExactBudgetScaledToDeadline gives an Exact portfolio request a
// short (but sufficient) time budget and checks the node budget is scaled
// down, the scaling is named in degraded, and the answer still arrives.
func TestExactBudgetScaledToDeadline(t *testing.T) {
	// A huge configured node budget makes any realistic time budget
	// "short": 5s fits 5000 × ExactNodesPerMilli = 2.5M of the 10M
	// configured nodes, so the search must be scaled — while the 12-node
	// tree proves after ~6k explored nodes, far inside both budgets even
	// under the race detector.
	s := New(Config{Workers: 1, ExactNodes: 10_000_000})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 9, 12)

	body, _ := json.Marshal(Request{Tree: tr, Processors: 2,
		Heuristics: []sched.HeuristicID{sched.IDExact, sched.IDParSubtrees}})
	req := httptest.NewRequest(http.MethodPost, "/v1/portfolio", strings.NewReader(string(body)))
	req.Header.Set("X-Timeout-Ms", "5000")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResponse(t, rec)
	if resp.Error != "" {
		t.Fatalf("scaled request failed: %s", resp.Error)
	}
	found := false
	for _, d := range resp.Degraded {
		if d == "exact_scaled" {
			found = true
		}
	}
	if !found {
		t.Errorf("degraded = %v, want exact_scaled", resp.Degraded)
	}
	if s.cache.len() != 0 {
		t.Error("budget-scaled response was cached")
	}
}
