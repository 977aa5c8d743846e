package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"treesched/internal/sched"
)

// The chaos end-to-end suite runs a fixed workload against servers with
// deterministic fault injection enabled and asserts the overload-safety
// invariants the resilience layer promises:
//
//  1. no deadlock — every test completes (the go test timeout is the
//     backstop);
//  2. no goroutine leak — after Close the process returns to its
//     goroutine baseline;
//  3. exactly one response (or one clean error) per accepted request;
//  4. responses that do succeed are byte-identical to the unfaulted run;
//  5. the forest engine's booking invariant holds under injected faults;
//  6. shed/error accounting in /metrics matches the outcomes the client
//     observed.
//
// Chaos servers disable the ladder and delay shedding (the workload is
// not an overload test), so any divergence from baseline is the fault
// injector's doing alone.

// chaosWorkloadSize is the number of requests chaosWorkload issues:
// 6 singles + 1 Exact-only portfolio + 2 portfolios + 5 batch lines.
const chaosWorkloadSize = 14

// chaosServerConfig is the shared shape of every server in the suite:
// deterministic answers (no ladder, no delay shedding), faults injected
// per the spec.
func chaosServerConfig(tb testing.TB, spec string) Config {
	cfg := Config{Workers: 2, QueueTarget: -1, DegradeLight: -1}
	if spec != "" {
		cfg.Chaos = mustChaos(tb, spec)
	}
	return cfg
}

// chaosWorkload runs the fixed request mix against h and returns the
// responses in issue order (request i of every run hits the same
// endpoint with the same body, so slot i is comparable across servers).
// Batch lines come back in input order, so order survives the NDJSON
// round-trip too.
func chaosWorkload(tb testing.TB, h http.Handler) []*Response {
	tb.Helper()
	var out []*Response
	record := func(body []byte) {
		resp := new(Response)
		if err := json.Unmarshal(body, resp); err != nil {
			tb.Fatalf("response not JSON: %v\n%s", err, body)
		}
		out = append(out, resp)
	}
	for i := 0; i < 6; i++ {
		rec := postJSON(tb, h, "/v1/schedule", Request{
			ID: fmt.Sprintf("s%d", i), Tree: testTree(tb, int64(100+i), 30), Processors: 2 + i%2,
		})
		record(rec.Body.Bytes())
	}
	// One Exact-only portfolio: 12 nodes proves deterministically, so its
	// explored-node counts are stable across runs.
	rec := postJSON(tb, h, "/v1/portfolio", Request{
		ID: "x0", Tree: testTree(tb, 9, 12), Processors: 2,
		Heuristics: []sched.HeuristicID{sched.IDExact},
	})
	record(rec.Body.Bytes())
	for i := 0; i < 2; i++ {
		rec := postJSON(tb, h, "/v1/portfolio", Request{
			ID: fmt.Sprintf("p%d", i), Tree: testTree(tb, int64(110+i), 25), Processors: 2,
			Heuristics: []sched.HeuristicID{sched.IDParSubtrees, sched.IDParDeepestFirst, sched.IDSequential},
		})
		record(rec.Body.Bytes())
	}
	rec = post(tb, h, "/v1/schedule/batch", chaosBatchBody(tb))
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		record([]byte(line))
	}
	if len(out) != chaosWorkloadSize {
		tb.Fatalf("workload produced %d responses, want %d", len(out), chaosWorkloadSize)
	}
	return out
}

func chaosBatchBody(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		b, err := json.Marshal(Request{
			ID: fmt.Sprintf("b%d", i), Tree: testTree(tb, int64(120+i), 20), Processors: 2,
		})
		if err != nil {
			tb.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// normalize strips the per-request fields (request id, cache provenance)
// so responses can be compared byte-for-byte across runs.
func normalize(resp *Response) []byte {
	r := *resp
	r.RequestID = ""
	r.Cached = false
	b, _ := json.Marshal(&r)
	return b
}

// assertSuccessesIdentical compares each successful chaos response
// byte-for-byte against the same workload slot of the unfaulted run.
func assertSuccessesIdentical(t *testing.T, baseline, chaotic []*Response) {
	t.Helper()
	for i, resp := range chaotic {
		if resp.Error != "" {
			continue
		}
		want, got := normalize(baseline[i]), normalize(resp)
		if !bytes.Equal(want, got) {
			t.Errorf("workload slot %d diverged from the unfaulted run:\nbase:  %s\nchaos: %s", i, want, got)
		}
	}
}

// chaosAccounting reads the error/admission counters the suite checks.
type chaosAccounting struct {
	admitted, trees, internal, cancelled, deadline int
}

func readAccounting(t *testing.T, h http.Handler) chaosAccounting {
	t.Helper()
	samples := parseMetricsPage(t, getBody(t, h, "/metrics"))
	atoi := func(key string) int {
		n, err := strconv.Atoi(sampleValue(samples, key))
		if err != nil {
			t.Fatalf("sample %s: %v", key, err)
		}
		return n
	}
	return chaosAccounting{
		admitted:  atoi(`treeschedd_admission_total{decision="admitted"}`),
		trees:     atoi("treeschedd_trees_scheduled_total"),
		internal:  atoi(`treeschedd_errors_total{kind="internal"}`),
		cancelled: atoi(`treeschedd_errors_total{kind="cancelled"}`),
		deadline:  atoi(`treeschedd_errors_total{kind="deadline"}`),
	}
}

// waitGoroutineBaseline polls until the goroutine count returns to the
// pre-test baseline (plus slack for runtime helpers), failing on leak.
func waitGoroutineBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestChaosLatency(t *testing.T) {
	base := runtime.NumGoroutine()
	bs := New(chaosServerConfig(t, ""))
	baseline := chaosWorkload(t, bs.Handler())
	bs.Close()

	s := New(chaosServerConfig(t, "seed=11,latency=0.4:2ms"))
	h := s.Handler()
	got := chaosWorkload(t, h)
	for i, resp := range got {
		if resp.Error != "" {
			t.Errorf("slot %d failed under latency chaos: %s", i, resp.Error)
		}
	}
	assertSuccessesIdentical(t, baseline, got)
	acc := readAccounting(t, h)
	if acc.admitted != chaosWorkloadSize || acc.trees != chaosWorkloadSize ||
		acc.internal != 0 || acc.cancelled != 0 || acc.deadline != 0 {
		t.Errorf("latency chaos accounting: %+v", acc)
	}
	s.Close()
	waitGoroutineBaseline(t, base)
}

func TestChaosPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	bs := New(chaosServerConfig(t, ""))
	baseline := chaosWorkload(t, bs.Handler())
	bs.Close()

	s := New(chaosServerConfig(t, "seed=12,panic=0.4"))
	h := s.Handler()
	got := chaosWorkload(t, h)
	panicked := 0
	for i, resp := range got {
		if resp.Error == "" {
			continue
		}
		if !strings.Contains(resp.Error, "internal error: panic") {
			t.Errorf("slot %d: unexpected error %q", i, resp.Error)
		}
		panicked++
	}
	if panicked == 0 || panicked == chaosWorkloadSize {
		t.Fatalf("panic chaos hit %d/%d requests; the suite needs a mix", panicked, chaosWorkloadSize)
	}
	assertSuccessesIdentical(t, baseline, got)
	// Every injected panic cost exactly its own request: one internal
	// error each, every admitted slot answered, survivors scheduled.
	acc := readAccounting(t, h)
	if acc.internal != panicked {
		t.Errorf("errors_total{internal} = %d, want %d (observed panics)", acc.internal, panicked)
	}
	if acc.admitted != chaosWorkloadSize || acc.trees != chaosWorkloadSize-panicked {
		t.Errorf("panic chaos accounting: %+v (panicked %d)", acc, panicked)
	}
	s.Close()
	waitGoroutineBaseline(t, base)
}

func TestChaosEvictionStorm(t *testing.T) {
	base := runtime.NumGoroutine()
	bs := New(chaosServerConfig(t, ""))
	baseline := chaosWorkload(t, bs.Handler())
	bs.Close()

	// evict=1 purges the LRU cache before every lookup: the cache never
	// helps, and must never hurt — every answer is computed fresh and
	// byte-identical to baseline.
	s := New(chaosServerConfig(t, "seed=13,evict=1"))
	h := s.Handler()
	got := chaosWorkload(t, h)
	for i, resp := range got {
		if resp.Error != "" {
			t.Errorf("slot %d failed under eviction chaos: %s", i, resp.Error)
		}
		if resp.Cached {
			t.Errorf("slot %d served from cache during an eviction storm", i)
		}
	}
	assertSuccessesIdentical(t, baseline, got)
	// The batch lines run on two workers at once, so two of them can each
	// purge, miss and insert; the cache is only quiescent once the
	// workload is over. One more request, sent alone, purges before its
	// lookup and inserts its own answer: only that entry can survive.
	rec := postJSON(t, h, "/v1/schedule", Request{ID: "last", Tree: testTree(t, 130, 20), Processors: 2})
	if resp := decodeResponse(t, rec); resp.Error != "" || resp.Cached {
		t.Errorf("final request under eviction chaos: cached=%v error=%q", resp.Cached, resp.Error)
	}
	if n := s.cache.Stats().Entries; n > 1 {
		t.Errorf("cache holds %d entries under evict=1, want <= 1", n)
	}
	s.Close()
	waitGoroutineBaseline(t, base)
}

// TestChaosCancelMidBatch injects a batch-context cancellation (the
// deterministic stand-in for a client disconnect) and checks every
// admitted line still gets exactly one clean error line, with the
// cancellations accounted: admitted = scheduled + cancelled.
func TestChaosCancelMidBatch(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(chaosServerConfig(t, "seed=14,cancel=1"))
	h := s.Handler()
	rec := post(t, h, "/v1/schedule/batch", chaosBatchBody(t))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d", rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	cancelled := 0
	for _, line := range lines {
		var resp Response
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			t.Fatalf("line not JSON: %v\n%s", err, line)
		}
		switch {
		case resp.Error == "":
			t.Errorf("line completed despite cancel=1 chaos: %+v", resp)
		case strings.Contains(resp.Error, "request canceled"):
			cancelled++
		default:
			t.Errorf("unexpected error line: %s", resp.Error)
		}
	}
	if cancelled == 0 {
		t.Fatal("cancel chaos produced no cancelled lines")
	}
	acc := readAccounting(t, h)
	if acc.cancelled != cancelled {
		t.Errorf("errors_total{cancelled} = %d, want %d (observed cancelled lines)", acc.cancelled, cancelled)
	}
	if acc.admitted != acc.trees+acc.cancelled {
		t.Errorf("admitted (%d) != scheduled (%d) + cancelled (%d)", acc.admitted, acc.trees, acc.cancelled)
	}
	if occ := s.adm.Occupancy(); occ != 0 {
		t.Errorf("admission occupancy %d after batch completion, want 0", occ)
	}
	s.Close()
	waitGoroutineBaseline(t, base)
}

// TestChaosForest runs the forest endpoint under injected worker latency
// and asserts the simulation is byte-identical to the unfaulted run —
// in particular the booking summary (rounds, booking rejections, peak
// resident memory) is unchanged, so the engine's memory-booking
// invariant held under the fault.
func TestChaosForest(t *testing.T) {
	base := runtime.NumGoroutine()
	body := forestTraceBody(t, 8)

	bs := New(chaosServerConfig(t, ""))
	recB := post(t, bs.Handler(), "/v1/forest?p=4&policy=sjf&mem_cap_factor=2", body)
	if recB.Code != http.StatusOK {
		t.Fatalf("baseline forest status %d: %s", recB.Code, recB.Body.String())
	}
	baseJobs, baseSum := decodeForestResponse(t, recB.Body.Bytes())
	bs.Close()

	s := New(chaosServerConfig(t, "seed=15,latency=1:5ms"))
	rec := post(t, s.Handler(), "/v1/forest?p=4&policy=sjf&mem_cap_factor=2", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("chaos forest status %d: %s", rec.Code, rec.Body.String())
	}
	jobs, sum := decodeForestResponse(t, rec.Body.Bytes())
	if !reflect.DeepEqual(jobs, baseJobs) || !reflect.DeepEqual(sum, baseSum) {
		t.Errorf("forest run diverged under latency chaos:\nbase:  %+v\nchaos: %+v", baseSum, sum)
	}
	if sum.PeakResident > sum.MemCap {
		t.Errorf("booking invariant violated: peak %d exceeds cap %d", sum.PeakResident, sum.MemCap)
	}
	s.Close()
	waitGoroutineBaseline(t, base)
}

// TestChaosSlowReader streams a batch to a client that reads one line at
// a time with pauses: backpressure must hold the pipeline (bounded
// lookahead) without deadlocking or dropping lines.
func TestChaosSlowReader(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(chaosServerConfig(t, "seed=16,latency=0.5:2ms"))
	ts := httptest.NewServer(s.Handler())

	resp, err := http.Post(ts.URL+"/v1/schedule/batch", "application/x-ndjson",
		bytes.NewReader(chaosBatchBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<22)
	var ids []string
	for sc.Scan() {
		var line Response
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line not JSON: %v\n%s", err, sc.Bytes())
		}
		if line.Error != "" {
			t.Errorf("line %s failed: %s", line.ID, line.Error)
		}
		ids = append(ids, line.ID)
		time.Sleep(30 * time.Millisecond) // the slow read, between every line
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading batch response: %v", err)
	}
	want := []string{"b0", "b1", "b2", "b3", "b4"}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("slow reader got lines %v, want %v", ids, want)
	}
	ts.Close()
	s.Close()
	waitGoroutineBaseline(t, base)
}

// TestBatchClientDisconnect is the real-socket cancellation test: a
// client aborts a streaming batch after the first response line. The
// pool must free its slots (admission occupancy drains to zero), and
// every admitted-but-aborted line must count exactly once in
// errors_total{kind="cancelled"}: admitted = scheduled + cancelled.
func TestBatchClientDisconnect(t *testing.T) {
	base := runtime.NumGoroutine()
	// One worker plus injected per-job latency makes lines queue behind
	// each other, so the disconnect catches some admitted and waiting.
	s := New(Config{Workers: 1, CacheSize: -1, QueueTarget: -1, DegradeLight: -1,
		Chaos: mustChaos(t, "seed=17,latency=1:50ms")})
	h := s.Handler()
	ts := httptest.NewServer(h)

	var body bytes.Buffer
	for i := 0; i < 12; i++ {
		b, err := json.Marshal(Request{
			ID: fmt.Sprintf("d%d", i), Tree: testTree(t, int64(200+i), 20), Processors: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		body.Write(b)
		body.WriteByte('\n')
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/schedule/batch", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read exactly one response line, then walk away mid-stream.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first batch line: %v", sc.Err())
	}
	var first Response
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first line not JSON: %v\n%s", err, sc.Bytes())
	}
	if first.ID != "d0" || first.Error != "" {
		t.Fatalf("first line = %+v, want a clean d0 result", first)
	}
	cancel()
	resp.Body.Close()

	// The aborted lines must drain: pool slots freed, admission window
	// empty, and the books balanced — every admitted line either
	// scheduled or counted cancelled, never both, never neither.
	deadline := time.Now().Add(5 * time.Second)
	var acc chaosAccounting
	for {
		acc = readAccounting(t, h)
		if s.adm.Occupancy() == 0 && acc.admitted == acc.trees+acc.cancelled && acc.cancelled > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch did not drain cleanly: occupancy %d, accounting %+v",
				s.adm.Occupancy(), acc)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if acc.admitted > 12 || acc.trees < 1 {
		t.Errorf("implausible accounting after disconnect: %+v", acc)
	}
	ts.Close()
	s.Close()
	waitGoroutineBaseline(t, base)
}
