package service

import (
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"treesched/internal/obs"
	"treesched/internal/sched"
)

// readPcacheMetrics scrapes the four treeschedd_precompute_cache_*
// families as integers.
func readPcacheMetrics(t *testing.T, h http.Handler) (hits, misses, evictions, bytes int) {
	t.Helper()
	samples := parseMetricsPage(t, getBody(t, h, "/metrics"))
	atoi := func(key string) int {
		n, err := strconv.Atoi(sampleValue(samples, key))
		if err != nil {
			t.Fatalf("sample %s: %v", key, err)
		}
		return n
	}
	return atoi("treeschedd_precompute_cache_hits_total"),
		atoi("treeschedd_precompute_cache_misses_total"),
		atoi("treeschedd_precompute_cache_evictions_total"),
		atoi("treeschedd_precompute_cache_bytes")
}

// TestPrecomputeCacheHeaderAndMetrics drives the cross-request Precompute
// cache through its client-visible surfaces: the X-Precompute-Cache debug
// header (miss on a first tree, hit when the same tree returns under
// different parameters or on another machine, absent on response-cache
// hits) and the four /metrics families.
func TestPrecomputeCacheHeaderAndMetrics(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 21, 40)

	// First sight of the tree: the per-tree context is built and cached.
	rec := postJSON(t, h, "/v1/schedule", Request{Tree: tr, Processors: 2})
	if resp := decodeResponse(t, rec); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if got := rec.Header().Get("X-Precompute-Cache"); got != "miss" {
		t.Fatalf("first request header = %q, want miss", got)
	}

	// Same tree, different p: a different response-cache entry, but the
	// p-independent Precompute is shared.
	rec = postJSON(t, h, "/v1/schedule", Request{Tree: tr, Processors: 4})
	resp := decodeResponse(t, rec)
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if resp.Cached {
		t.Fatal("p=4 request unexpectedly hit the response cache")
	}
	if got := rec.Header().Get("X-Precompute-Cache"); got != "hit" {
		t.Fatalf("repeat-tree header = %q, want hit", got)
	}

	// An identical repeat is a response-cache hit: no scheduling ran, so
	// the debug header is absent.
	rec = postJSON(t, h, "/v1/schedule", Request{Tree: tr, Processors: 2})
	if resp := decodeResponse(t, rec); !resp.Cached {
		t.Fatal("identical repeat missed the response cache")
	}
	if got := rec.Header().Get("X-Precompute-Cache"); got != "" {
		t.Fatalf("response-cache hit carries X-Precompute-Cache %q, want absent", got)
	}

	// The per-tree context does not depend on the machine, so a
	// heterogeneous machine shares the tree's one entry: a hit.
	rec = postJSON(t, h, "/v1/schedule", Request{Tree: tr, Machine: "2x1.0+2x0.5"})
	if resp := decodeResponse(t, rec); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if got := rec.Header().Get("X-Precompute-Cache"); got != "hit" {
		t.Fatalf("heterogeneous repeat-tree header = %q, want hit", got)
	}

	hits, misses, evictions, bytes := readPcacheMetrics(t, h)
	if hits != 2 || misses != 1 || evictions != 0 {
		t.Errorf("pcache counters = %d hits, %d misses, %d evictions; want 2, 1, 0",
			hits, misses, evictions)
	}
	if bytes <= 0 {
		t.Errorf("treeschedd_precompute_cache_bytes = %d, want > 0", bytes)
	}
}

// TestPrecomputeCachedSpan checks the flight-trace surface: a Precompute
// cache hit replaces the "precompute" stage span with a
// "precompute_cached" span carrying value 1.
func TestPrecomputeCachedSpan(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 22, 30)

	body := encodeJSON(t, Request{Tree: tr, Processors: 2})
	resp := decodeResponse(t, post(t, h, "/v1/schedule?trace=1", body))
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	checkSpanTree(t, resp.Trace, len(body), []string{"precompute"})

	body = encodeJSON(t, Request{Tree: tr, Processors: 4})
	resp = decodeResponse(t, post(t, h, "/v1/schedule?trace=1", body))
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	checkSpanTree(t, resp.Trace, len(body), []string{"precompute_cached"})
	var val int64 = -1
	seenMiss := false
	resp.Trace.Walk(func(n *obs.SpanNode, _ int) {
		if n.Name == "precompute_cached" {
			val = n.Value
		}
		if n.Name == "precompute" {
			seenMiss = true
		}
	})
	if val != 1 {
		t.Errorf("precompute_cached span value = %d, want 1", val)
	}
	if seenMiss {
		t.Error("hit trace still contains a precompute (miss) span")
	}
}

// TestPrecomputeCacheDisabled pins the negative-budget convention: no
// header, no lookups, zeroed families.
func TestPrecomputeCacheDisabled(t *testing.T) {
	s := New(Config{Workers: 1, PrecomputeCacheBytes: -1})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 23, 25)

	for i := 0; i < 2; i++ {
		rec := postJSON(t, h, "/v1/schedule", Request{Tree: tr, Processors: 2 + i})
		if resp := decodeResponse(t, rec); resp.Error != "" {
			t.Fatal(resp.Error)
		}
		if got := rec.Header().Get("X-Precompute-Cache"); got != "" {
			t.Fatalf("request %d: header %q with the cache disabled", i, got)
		}
	}
	hits, misses, _, bytes := readPcacheMetrics(t, h)
	if hits != 0 || misses != 0 || bytes != 0 {
		t.Errorf("disabled cache reports %d hits, %d misses, %d bytes; want zeros", hits, misses, bytes)
	}
}

// TestPartitionsWireField checks the partitions field of the removed
// partitioned scheduler: 0 and 1 keep meaning the sequential scheduler and
// share its cache entry, and any other value is a 400 that names the
// removal, on every scheduling endpoint and batch line.
func TestPartitionsWireField(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 24, 200)
	ids := []sched.HeuristicID{sched.IDParInnerFirst}

	seq := decodeResponse(t, postJSON(t, h, "/v1/schedule", Request{Tree: tr, Processors: 4, Heuristics: ids}))
	if seq.Error != "" {
		t.Fatal(seq.Error)
	}
	one := decodeResponse(t, postJSON(t, h, "/v1/schedule",
		Request{Tree: tr, Processors: 4, Heuristics: ids, Partitions: 1}))
	if !one.Cached {
		t.Error("partitions=1 did not alias the sequential cache entry")
	}
	if one.Results[0].Makespan != seq.Results[0].Makespan {
		t.Errorf("partitions=1 makespan %g != sequential %g", one.Results[0].Makespan, seq.Results[0].Makespan)
	}

	for _, bad := range []int{-1, 2, 8, 64} {
		for _, path := range []string{"/v1/schedule", "/v1/portfolio"} {
			rec := postJSON(t, h, path, Request{Tree: tr, Processors: 4, Partitions: bad})
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "removed") {
				t.Errorf("%s partitions=%d answered %d %s, want 400 naming the removal", path, bad, rec.Code, rec.Body.String())
			}
		}
	}
	rec := post(t, h, "/v1/schedule/batch", mustJSON(t, Request{ID: "b", Tree: tr, Processors: 4, Partitions: 8}))
	if resp := decodeResponse(t, rec); resp.ID != "b" || !strings.Contains(resp.Error, "removed") {
		t.Errorf("batch line with partitions=8 answered %+v, want an error naming the removal", resp)
	}
}

// TestChaosPrecomputeEvictionStorm extends the eviction-storm chaos class
// to the Precompute cache: with evict=1 both caches are purged before
// every lookup, every response is computed fresh from a rebuilt context,
// and the survivors stay byte-identical to the unfaulted run.
func TestChaosPrecomputeEvictionStorm(t *testing.T) {
	base := runtime.NumGoroutine()
	bs := New(chaosServerConfig(t, ""))
	baseline := chaosWorkload(t, bs.Handler())
	bs.Close()

	s := New(chaosServerConfig(t, "seed=15,evict=1"))
	h := s.Handler()
	got := chaosWorkload(t, h)
	for i, resp := range got {
		if resp.Error != "" {
			t.Errorf("slot %d failed under eviction chaos: %s", i, resp.Error)
		}
	}
	assertSuccessesIdentical(t, baseline, got)
	st := s.pcache.Stats()
	if st.Evictions == 0 {
		t.Error("evict=1 storm evicted nothing from the Precompute cache")
	}
	if st.Hits != 0 {
		// Every request purges before its own lookup, so the workload's
		// sequential requests can never observe a hit; only concurrently
		// pipelined batch lines could, and the workload has one batch whose
		// trees are all distinct.
		t.Errorf("Precompute cache reports %d hits under evict=1, want 0", st.Hits)
	}
	s.Close()
	waitGoroutineBaseline(t, base)
}
