package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"treesched/internal/forest"
)

// forestTraceBody encodes a small deterministic trace.
func forestTraceBody(tb testing.TB, jobs int) []byte {
	tb.Helper()
	trace, err := forest.GenTrace(forest.GenConfig{Jobs: jobs, Seed: 21, MinNodes: 20, MaxNodes: 60})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := forest.EncodeTrace(&buf, trace); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// smallForestTraceBody encodes a trace whose trees stay under tight
// MaxNodes limits.
func smallForestTraceBody(tb testing.TB, jobs int) []byte {
	tb.Helper()
	trace, err := forest.GenTrace(forest.GenConfig{Jobs: jobs, Seed: 8, MinNodes: 10, MaxNodes: 30})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := forest.EncodeTrace(&buf, trace); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// decodeForestResponse splits the NDJSON response into per-job results
// and the trailing summary.
func decodeForestResponse(tb testing.TB, body []byte) ([]forest.JobResult, forest.Summary) {
	tb.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<22)
	var jobs []forest.JobResult
	var summary *forest.Summary
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if summary != nil {
			tb.Fatalf("line after summary: %s", line)
		}
		if bytes.Contains(line, []byte(`"summary"`)) {
			var wrap struct {
				Summary *forest.Summary `json:"summary"`
			}
			if err := json.Unmarshal(line, &wrap); err != nil || wrap.Summary == nil {
				tb.Fatalf("bad summary line %s: %v", line, err)
			}
			summary = wrap.Summary
			continue
		}
		var jr forest.JobResult
		if err := json.Unmarshal(line, &jr); err != nil {
			tb.Fatalf("bad job line %s: %v", line, err)
		}
		jobs = append(jobs, jr)
	}
	if summary == nil {
		tb.Fatalf("no summary line in response:\n%s", body)
	}
	return jobs, *summary
}

func TestForestEndpoint(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()

	body := forestTraceBody(t, 12)
	rec := post(t, h, "/v1/forest?p=4&policy=sjf&mem_cap_factor=2", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	jobs, sum := decodeForestResponse(t, rec.Body.Bytes())
	if len(jobs) != 12 || sum.Jobs != 12 {
		t.Fatalf("got %d job lines, summary %+v", len(jobs), sum)
	}
	for i, jr := range jobs {
		if jr.Index != i {
			t.Errorf("job line %d has index %d (want trace order)", i, jr.Index)
		}
		if jr.Status != forest.StatusCompleted {
			t.Errorf("job %s: %+v", jr.ID, jr)
		}
	}
	if sum.Policy.String() != "sjf" || sum.Processors != 4 {
		t.Errorf("summary config echo wrong: %+v", sum)
	}
	if sum.PeakResident > sum.MemCap {
		t.Errorf("peak %d exceeds cap %d", sum.PeakResident, sum.MemCap)
	}

	// Identical request → identical response (engine determinism through
	// the full HTTP path).
	rec2 := post(t, h, "/v1/forest?p=4&policy=sjf&mem_cap_factor=2", body)
	jobs2, sum2 := decodeForestResponse(t, rec2.Body.Bytes())
	if !reflect.DeepEqual(jobs, jobs2) || !reflect.DeepEqual(sum, sum2) {
		t.Error("two identical forest requests returned different results")
	}

	// The counters surface on /metrics.
	metrics := getBody(t, h, "/metrics")
	for _, want := range []string{
		`treeschedd_requests_total{endpoint="/v1/forest"} 2`,
		"treeschedd_forest_jobs_total 24",
		"treeschedd_forest_rejected_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestForestEndpointRejections(t *testing.T) {
	s := New(Config{MaxForestJobs: 4, MaxNodes: 50, MaxProcs: 8})
	defer s.Close()
	h := s.Handler()

	for _, tc := range []struct {
		name, path string
		body       []byte
		status     int
		errPart    string
	}{
		{"bad policy", "/v1/forest?policy=round_robin", forestTraceBody(t, 2), http.StatusBadRequest, "unknown policy"},
		{"bad p", "/v1/forest?p=0", forestTraceBody(t, 2), http.StatusBadRequest, "bad p"},
		{"p over limit", "/v1/forest?p=999", forestTraceBody(t, 2), http.StatusBadRequest, "exceeds limit"},
		{"bad cap", "/v1/forest?mem_cap=-3", forestTraceBody(t, 2), http.StatusBadRequest, "bad mem_cap"},
		{"bad factor", "/v1/forest?mem_cap_factor=zero", forestTraceBody(t, 2), http.StatusBadRequest, "bad mem_cap_factor"},
		{"bad default heuristic", "/v1/forest?default_heuristic=Nope", forestTraceBody(t, 2), http.StatusBadRequest, "unknown heuristic"},
		{"too many jobs", "/v1/forest", smallForestTraceBody(t, 6), http.StatusRequestEntityTooLarge, "trace too large"},
		{"malformed line", "/v1/forest", []byte("{nope\n"), http.StatusBadRequest, "trace line 1"},
	} {
		rec := post(t, h, tc.path, tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.status, rec.Body.String())
			continue
		}
		resp := decodeResponse(t, rec)
		if !strings.Contains(resp.Error, tc.errPart) {
			t.Errorf("%s: error %q, want substring %q", tc.name, resp.Error, tc.errPart)
		}
		if rid := rec.Header().Get("X-Request-Id"); rid == "" || resp.RequestID != rid {
			t.Errorf("%s: request_id %q under X-Request-Id %q", tc.name, resp.RequestID, rid)
		}
	}

	// A tree over MaxNodes inside a trace line is a 413, not a 400.
	bigTrace, err := forest.GenTrace(forest.GenConfig{Jobs: 1, Seed: 2, MinNodes: 60, MaxNodes: 80})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := forest.EncodeTrace(&buf, bigTrace); err != nil {
		t.Fatal(err)
	}
	rec := post(t, h, "/v1/forest", buf.Bytes())
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized tree: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestForestEndpointBoundsWholeBody pins the aggregate trace limit:
// MaxBodyBytes caps the whole /v1/forest body, not just each line, so a
// many-line trace cannot demand unbounded memory.
func TestForestEndpointBoundsWholeBody(t *testing.T) {
	s := New(Config{MaxBodyBytes: 600})
	defer s.Close()
	body := smallForestTraceBody(t, 4) // each line fits 600 bytes; the total does not
	if int64(len(body)) <= 600 {
		t.Fatalf("test trace too small (%d bytes) to exceed the body limit", len(body))
	}
	rec := post(t, s.Handler(), "/v1/forest", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body.String())
	}
}
