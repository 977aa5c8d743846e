package service

import (
	"net/http"
	"reflect"
	"testing"

	"treesched/internal/portfolio"
	"treesched/internal/sched"
)

// TestPortfolioExactCandidate submits "Exact" alongside the default
// candidates: the wire response must carry the candidate with its
// proven/explored_nodes fields, and a proven optimum must win under the
// defaulted min_makespan objective.
func TestPortfolioExactCandidate(t *testing.T) {
	s := New(Config{ExactNodes: 50_000})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 13, 20) // small enough for the 64-node solver limit

	ids := append(portfolio.DefaultCandidates(), sched.IDExact)
	rec := postJSON(t, h, "/v1/portfolio", Request{ID: "ex-1", Tree: tr, Processors: 2, Heuristics: ids})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResponse(t, rec)
	if resp.Error != "" {
		t.Fatalf("unexpected error: %s", resp.Error)
	}
	if len(resp.Results) != len(ids) {
		t.Fatalf("%d results, want %d", len(resp.Results), len(ids))
	}
	var ex *HeuristicResult
	for i := range resp.Results {
		r := &resp.Results[i]
		if r.Heuristic == sched.IDExact {
			ex = r
		} else if r.Proven || r.ExploredNodes != 0 {
			t.Errorf("%v carries exact-only wire fields: %+v", r.Heuristic, r)
		}
	}
	if ex == nil {
		t.Fatal("no Exact result on the wire")
	}
	if ex.Error != "" {
		t.Fatalf("Exact failed: %s", ex.Error)
	}
	if ex.Proven {
		if resp.Winner == nil {
			t.Fatal("no winner")
		}
		for _, r := range resp.Results {
			if r.Error == "" && r.Makespan < ex.Makespan {
				t.Errorf("%v makespan %g beats the proven optimum %g", r.Heuristic, r.Makespan, ex.Makespan)
			}
		}
	}

	// Identical repeat: cache-served and byte-identical, exact stats
	// included — the node budget is a server Config knob, not wire state,
	// so the cache can never serve a result computed under a different
	// budget.
	resp2 := decodeResponse(t, postJSON(t, h, "/v1/portfolio",
		Request{ID: "ex-2", Tree: tr, Processors: 2, Heuristics: ids}))
	if !resp2.Cached {
		t.Fatal("repeat not cache-served")
	}
	if !reflect.DeepEqual(resp.Results, resp2.Results) {
		t.Fatal("cached exact results differ from computed ones")
	}
}

// TestScheduleExactTriggersPortfolio: naming Exact on the plain schedule
// endpoint must route through the portfolio path (like Auto), defaulting
// the objective to min_makespan.
func TestScheduleExactTriggersPortfolio(t *testing.T) {
	s := New(Config{ExactNodes: 50_000})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 17, 16)

	resp := decodeResponse(t, postJSON(t, h, "/v1/schedule", Request{
		Tree: tr, Processors: 2,
		Heuristics: []sched.HeuristicID{sched.IDParSubtrees, sched.IDExact},
	}))
	if resp.Error != "" {
		t.Fatalf("Exact schedule request failed: %s", resp.Error)
	}
	if len(resp.Results) != 2 || resp.Winner == nil || len(resp.Frontier) == 0 {
		t.Fatalf("Exact did not produce a portfolio response: %+v", resp)
	}
	found := false
	for _, r := range resp.Results {
		if r.Heuristic == sched.IDExact {
			found = true
			if r.Error != "" {
				t.Errorf("Exact failed: %s", r.Error)
			}
		}
	}
	if !found {
		t.Fatal("Exact missing from results")
	}

	// Exact alone must also work — the portfolio layer must not splice
	// the default candidates back in.
	resp2 := decodeResponse(t, postJSON(t, h, "/v1/schedule", Request{
		Tree: tr, Processors: 2, Heuristics: []sched.HeuristicID{sched.IDExact},
	}))
	if resp2.Error != "" {
		t.Fatalf("only-Exact request failed: %s", resp2.Error)
	}
	if len(resp2.Results) != 1 || resp2.Results[0].Heuristic != sched.IDExact {
		t.Fatalf("only-Exact results = %+v, want a single Exact entry", resp2.Results)
	}
}

// TestScheduleExactTooLarge: trees beyond the solver limit fail the Exact
// candidate but must not take down the rest of the race.
func TestScheduleExactTooLarge(t *testing.T) {
	s := New(Config{ExactNodes: 50_000})
	defer s.Close()
	h := s.Handler()
	tr := testTree(t, 19, 120) // > 64 nodes

	resp := decodeResponse(t, postJSON(t, h, "/v1/portfolio", Request{
		Tree: tr, Processors: 2,
		Heuristics: []sched.HeuristicID{sched.IDParSubtrees, sched.IDExact},
	}))
	if resp.Error != "" {
		t.Fatalf("request-level error: %s", resp.Error)
	}
	var exErr, psErr string
	for _, r := range resp.Results {
		switch r.Heuristic {
		case sched.IDExact:
			exErr = r.Error
		case sched.IDParSubtrees:
			psErr = r.Error
		}
	}
	if exErr == "" {
		t.Error("Exact accepted a tree beyond the solver limit")
	}
	if psErr != "" {
		t.Errorf("ParSubtrees infected by the Exact failure: %s", psErr)
	}
	if resp.Winner == nil {
		t.Error("no winner despite a healthy candidate")
	}
}

// TestPortfolioExactWinnerTimeline: an Exact winner renders a timeline
// like any other candidate, from the schedule the race kept.
func TestPortfolioExactWinnerTimeline(t *testing.T) {
	s := New(Config{ExactNodes: 200_000})
	defer s.Close()
	tr := testTree(t, 13, 12)
	obj := portfolio.MinMakespan()
	resp := decodeResponse(t, postJSON(t, s.Handler(), "/v1/portfolio?timeline=1",
		Request{Tree: tr, Processors: 2, Heuristics: []sched.HeuristicID{sched.IDSequential, sched.IDExact}, Objective: &obj}))
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if resp.Winner == nil || *resp.Winner != sched.IDExact {
		t.Fatalf("winner %v, want Exact (the proven optimum beats the sequential baseline)", resp.Winner)
	}
	if resp.Timeline == nil {
		t.Fatal("an Exact winner rendered no timeline")
	}
	if tasks, _, _ := timelineEvents(t, resp.Timeline); tasks != tr.Len() {
		t.Fatalf("timeline has %d tasks, want %d", tasks, tr.Len())
	}
}
