package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"treesched/internal/obs"
)

// TestAliasCacheEndpoints checks which requests the alias cache serves and
// what it learns: single, portfolio and batch-line requests look their tree
// member up; only a request that got as far as hashing its tree adds an
// alias, so an error answer never creates one; the two wire forms of a
// tree are different bytes; a hit that neither the response nor the
// Precompute cache can answer decodes the request bytes after one counted
// Precompute lookup; /v1/forest never looks up; a hit records a
// "hash_cached" span in place of "hash"; and the counters reach /metrics.
func TestAliasCacheEndpoints(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 41, 60)
	want := func(hits, misses, entries int64) {
		t.Helper()
		if st := s.aliases.Stats(); st.Hits != hits || st.Misses != misses || st.Entries != entries {
			t.Fatalf("alias cache: %d hits, %d misses, %d entries; want %d, %d, %d",
				st.Hits, st.Misses, st.Entries, hits, misses, entries)
		}
	}
	same := func(what string, resp, first Response) {
		t.Helper()
		if resp.Error != "" || resp.TreeHash != first.TreeHash || resp.Nodes != first.Nodes {
			t.Fatalf("%s: error %q, tree %s of %d nodes; want tree %s of %d nodes",
				what, resp.Error, resp.TreeHash, resp.Nodes, first.TreeHash, first.Nodes)
		}
	}

	if rec := postJSON(t, h, "/v1/schedule", Request{Tree: tr, Processors: 0}); rec.Code != http.StatusBadRequest {
		t.Fatalf("p=0: status %d, want 400", rec.Code)
	}
	want(0, 1, 0)
	first := decodeResponse(t, postJSON(t, h, "/v1/schedule", Request{Tree: tr, Processors: 2}))
	if first.Error != "" || first.Nodes != tr.Len() {
		t.Fatalf("first request: %+v", first)
	}
	want(0, 2, 1)

	same("portfolio", decodeResponse(t, postJSON(t, h, "/v1/portfolio?trace=1", Request{Tree: tr, Processors: 2})), first)
	want(1, 2, 1)
	resp := decodeResponse(t, postJSON(t, h, "/v1/schedule?trace=1", Request{Tree: tr, Processors: 4}))
	same("traced repeat", resp, first)
	want(2, 2, 1)
	var hashSpans, hashCached int
	var cachedValue int64
	resp.Trace.Walk(func(n *obs.SpanNode, _ int) {
		switch n.Name {
		case "hash":
			hashSpans++
		case "hash_cached":
			hashCached++
			cachedValue = n.Value
		}
	})
	if hashSpans != 0 || hashCached != 1 || cachedValue != 1 {
		t.Errorf("alias hit traced %d hash and %d hash_cached spans (value %d); want 0 and 1 (value 1)",
			hashSpans, hashCached, cachedValue)
	}

	line := mustJSON(t, Request{ID: "b", Tree: tr, Processors: 3})
	rec := post(t, h, "/v1/schedule/batch", append(line, '\n'))
	var lineResp Response
	if err := json.Unmarshal(bytes.TrimSpace(rec.Body.Bytes()), &lineResp); err != nil {
		t.Fatalf("batch answer %q: %v", rec.Body.String(), err)
	}
	same("batch line", lineResp, first)
	want(3, 2, 1)

	var text bytes.Buffer
	if err := tr.Encode(&text); err != nil {
		t.Fatal(err)
	}
	resp = decodeResponse(t, postJSON(t, h, "/v1/schedule", Request{TreeText: text.String(), Processors: 2}))
	same("text form", resp, first)
	if !resp.Cached {
		t.Error("the text form of a tree missed the response cache its JSON form filled")
	}
	want(3, 3, 2)

	// With the response and Precompute caches purged, an alias hit has
	// nothing to answer from: after its one counted Precompute lookup the
	// worker decodes the request bytes, under a second decode span.
	s.cache.Purge()
	s.pcache.Purge()
	before := s.pcache.Stats()
	rec = postJSON(t, h, "/v1/schedule?trace=1", Request{Tree: tr, Processors: 2})
	resp = decodeResponse(t, rec)
	same("re-decoded repeat", resp, first)
	if !reflect.DeepEqual(resp.Results, first.Results) {
		t.Errorf("re-decoded repeat results %+v, first %+v", resp.Results, first.Results)
	}
	want(4, 3, 2)
	if st := s.pcache.Stats(); st.Hits != before.Hits || st.Misses != before.Misses+1 || rec.Header().Get("X-Precompute-Cache") != pcMiss {
		t.Errorf("re-decoded repeat: Precompute cache %d hits, %d misses (before %d, %d), header %q; want one more miss",
			st.Hits, st.Misses, before.Hits, before.Misses, rec.Header().Get("X-Precompute-Cache"))
	}
	decodes := 0
	resp.Trace.Walk(func(n *obs.SpanNode, _ int) {
		if n.Name == "decode" {
			decodes++
		}
	})
	if decodes != 2 {
		t.Errorf("re-decoded repeat traced %d decode spans, want 2", decodes)
	}

	if rec := post(t, h, "/v1/forest?p=4", forestTraceBody(t, 3)); rec.Code != http.StatusOK {
		t.Fatalf("forest: status %d: %s", rec.Code, rec.Body.String())
	}
	want(4, 3, 2)

	samples := parseMetricsPage(t, getBody(t, h, "/metrics"))
	if hits, misses := sampleValue(samples, "treeschedd_alias_cache_hits_total"),
		sampleValue(samples, "treeschedd_alias_cache_misses_total"); hits != "4" || misses != "3" {
		t.Errorf("alias counters on /metrics: %s hits, %s misses; want 4, 3", hits, misses)
	}
}

// TestAliasCacheOff checks that turning the response cache off turns the
// alias cache off with it: repeats decode and hash, and the counters read
// zero.
func TestAliasCacheOff(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: -1})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 42, 30)
	var hashes []string
	for i := 0; i < 2; i++ {
		body := encodeJSON(t, Request{Tree: tr, Processors: 2})
		resp := decodeResponse(t, post(t, h, "/v1/schedule?trace=1", body))
		if resp.Error != "" {
			t.Fatal(resp.Error)
		}
		checkSpanTree(t, resp.Trace, len(body), []string{"decode", "hash"})
		hashes = append(hashes, resp.TreeHash)
	}
	if s.aliases != nil || hashes[0] != hashes[1] {
		t.Fatalf("alias cache %v, tree hashes %v", s.aliases, hashes)
	}
	samples := parseMetricsPage(t, getBody(t, h, "/metrics"))
	if v := sampleValue(samples, "treeschedd_alias_cache_hits_total"); v != "0" {
		t.Errorf("treeschedd_alias_cache_hits_total = %s with the cache off, want 0", v)
	}
}
