package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"treesched/internal/service"
)

// answered sends reqs to a fresh server and returns the outcomes, which
// must all pass the checks.
func answered(t *testing.T, reqs []request) []outcome {
	t.Helper()
	srv, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	ph := drive(srv.url, reqs, time.Minute, false)
	if v := check(reqs, ph.outcomes); v.failed != 0 {
		t.Fatalf("undoctored answers failed: %v", v.examples)
	}
	return ph.outcomes
}

// batchAnswers returns an answer line for every line of batch, sending
// each line on its own to /v1/schedule: the batch endpoint itself may lose
// lines.
func batchAnswers(t *testing.T, batch request) [][]byte {
	t.Helper()
	var singles []request
	for k, l := range ndjsonLines(batch.joined()) {
		singles = append(singles, newRequest(kindSchedule, "/v1/schedule", [][]byte{l}, batch.items[k:k+1], "", ""))
	}
	var lines [][]byte
	for _, o := range answered(t, singles) {
		lines = append(lines, bytes.TrimSpace(o.body))
	}
	return lines
}

// redo applies doctor to the decoded answer and re-encodes it.
func redo(t *testing.T, body []byte, doctor func(*service.Response)) []byte {
	t.Helper()
	var resp service.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	doctor(&resp)
	b, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckRejectsDoctoredAnswers(t *testing.T) {
	a := &arena{}
	defer a.release()
	rng := rand.New(rand.NewSource(9))
	et, err := encodeTree(a, familyTree(rng, "attachment", 300), "json")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := singleRequest("x1", et, "json", singleOpts{kind: kindSchedule, selection: "paper4", p: 4})
	if err != nil {
		t.Fatal(err)
	}
	race, err := singleRequest("x2", et, "json", singleOpts{kind: kindPortfolio, selection: "portfolio", p: 8, objective: "weighted:0.5"})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := batchRequest(a, rng, "xb", 0)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []request{plain, race, batch}
	outs := answered(t, reqs[:2])

	for name, c := range map[string]struct {
		req    int
		doctor func(*service.Response)
	}{
		"makespan below the bound": {0, func(r *service.Response) { r.Results[1].Makespan = r.Bounds.MakespanLB * 0.99 }},
		"bound lowered with it": {0, func(r *service.Response) {
			r.Bounds.MakespanLB /= 2
			r.Results[0].Makespan = r.Bounds.MakespanLB
		}},
		"another tree's hash":   {0, func(r *service.Response) { r.TreeHash = "00" + r.TreeHash[2:] }},
		"a result missing":      {0, func(r *service.Response) { r.Results = r.Results[:3] }},
		"results out of order":  {0, func(r *service.Response) { r.Results[0], r.Results[1] = r.Results[1], r.Results[0] }},
		"another request's id":  {0, func(r *service.Response) { r.ID = "x9" }},
		"a failed heuristic":    {0, func(r *service.Response) { r.Results[2].Error = "boom" }},
		"degraded":              {1, func(r *service.Response) { r.Degraded = []string{"portfolio_top3"} }},
		"no winner":             {1, func(r *service.Response) { r.Winner = nil }},
		"winner not a result":   {1, func(r *service.Response) { r.Results = r.Results[1:]; r.Winner = &plain.items[0].heuristics[0] }},
		"zero peak memory":      {1, func(r *service.Response) { r.Results[4].PeakMemory = 0 }},
		"memory_seq missing":    {1, func(r *service.Response) { r.Bounds.MemorySeq = 0 }},
		"node count off by one": {1, func(r *service.Response) { r.Nodes++ }},
	} {
		o := outs[c.req]
		o.body = redo(t, o.body, c.doctor)
		v := check(reqs, []outcome{o})
		if v.failed != 1 || v.wrong != 1 {
			t.Errorf("%s: failed %d wrong %d, want 1 and 1", name, v.failed, v.wrong)
		}
	}

	// A capped result above ⌈factor × memory_seq⌉, in batch line 3.
	lines := batchAnswers(t, batch)
	lines[2] = redo(t, lines[2], func(r *service.Response) {
		r.Results[1].PeakMemory = int64(float64(r.Bounds.MemorySeq)*batch.items[2].capFactor) + 2
	})
	o := outcome{req: 2, status: http.StatusOK, body: bytes.Join(lines, []byte("\n"))}
	if v := check(reqs, []outcome{o}); v.failed != 1 || v.wrong != 1 {
		t.Errorf("capped peak above the cap: failed %d wrong %d, want 1 and 1", v.failed, v.wrong)
	}

	// Refusals and errors fail the request's trees without making the run
	// incorrect.
	shed := outs[0]
	shed.status, shed.body = http.StatusServiceUnavailable, []byte(`{"error":"server overloaded: queue delay over target, request shed"}`)
	errored := outs[1]
	errored.body = redo(t, errored.body, func(r *service.Response) { r.Error = "invalid request" })
	v := check(reqs, []outcome{shed, errored})
	if v.failed != 2 || v.wrong != 0 || v.byClass[failShed] != 1 || v.byClass[failError] != 1 {
		t.Errorf("shed and error answers: failed %d wrong %d classes %v", v.failed, v.wrong, v.byClass)
	}
}

// The batch line accounting counts every request line without its own
// answer line, in order, as a failed tree.
func TestCheckBatchLineAccounting(t *testing.T) {
	a := &arena{}
	defer a.release()
	batch, err := batchRequest(a, rand.New(rand.NewSource(4)), "lb", 0)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []request{batch}
	lines := batchAnswers(t, batch)
	o := outcome{status: http.StatusOK}
	lost := append(append([][]byte{}, lines[:5]...),
		[]byte(`{"request_id":"r1.6","error":"invalid request: unexpected end of JSON input"}`),
		[]byte(`{"error":"batch read: http: invalid Read on closed Body (remaining batch lines dropped)"}`))
	swapped := append([][]byte{}, lines...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	for name, c := range map[string]struct {
		lines                   [][]byte
		failed, missing, wrongs int
	}{
		"all lines":          {lines, 0, 0, 0},
		"last line dropped":  {lines[:batchLines-1], 1, 1, 0},
		"tail lost mid-body": {lost, 3, 3, 0},
		"lines swapped":      {swapped, 2, 0, 2},
		"garbled line":       {append(append([][]byte{}, lines[:7]...), []byte(`{"id":`)), 1, 0, 1},
	} {
		o.body = bytes.Join(c.lines, []byte("\n"))
		v := check(reqs, []outcome{o})
		if v.failed != c.failed || v.byClass[failMissing] != c.missing || v.wrong != c.wrongs || v.attempted != batchLines {
			t.Errorf("%s: attempted %d failed %d (missing %d, wrong %d), want failed %d missing %d wrong %d",
				name, v.attempted, v.failed, v.byClass[failMissing], v.wrong, c.failed, c.missing, c.wrongs)
		}
	}
}

func TestCheckForestAnswers(t *testing.T) {
	a := &arena{}
	defer a.release()
	trace, err := forestRequest(a, rand.New(rand.NewSource(5)), "ft", 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []request{trace}
	o := answered(t, reqs)[0]
	lines := ndjsonLines(o.body)
	summary := lines[len(lines)-1]
	var s forestSummary
	if err := json.Unmarshal(summary, &s); err != nil {
		t.Fatal(err)
	}
	over := *s.Summary
	over.PeakResident = over.MemCap + 1
	overLine, err := json.Marshal(forestSummary{&over})
	if err != nil {
		t.Fatal(err)
	}
	short := *s.Summary
	short.Completed--
	shortLine, err := json.Marshal(forestSummary{&short})
	if err != nil {
		t.Fatal(err)
	}
	swapped := append([][]byte{}, lines...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	for name, c := range map[string]struct {
		lines  [][]byte
		failed int
	}{
		"peak above the cap":         {append(append([][]byte{}, lines[:forestJobs]...), overLine), forestJobs},
		"completed+rejected != jobs": {append(append([][]byte{}, lines[:forestJobs]...), shortLine), forestJobs},
		"a job line missing":         {append(append([][]byte{}, lines[1:forestJobs]...), summary), forestJobs},
		"job lines out of order":     {swapped, 2},
	} {
		o.body = bytes.Join(c.lines, []byte("\n"))
		if v := check(reqs, []outcome{o}); v.failed != c.failed {
			t.Errorf("%s: failed %d, want %d", name, v.failed, c.failed)
		}
	}
}
