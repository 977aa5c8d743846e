package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"

	"treesched/internal/forest"
	"treesched/internal/service"
)

// Failure classes of a tree, as counted in the verdict.
const (
	failTransport = "transport" // the HTTP exchange itself failed
	failStatus    = "status"    // a status other than 200
	failShed      = "shed"      // refused by admission control
	failError     = "error"     // an error field in the answer
	failMissing   = "missing"   // a batch line or forest job without an answer line
	failCheck     = "check"     // an answer that fails its checks
)

// verdict is the checked outcome of one timed phase.
type verdict struct {
	attempted, failed int // trees
	byClass           map[string]int
	examples          []string // the first failures, for the report
	// wrong counts answers that came back and failed a check: a wrong
	// answer, unlike a lost or refused one, makes the run incorrect.
	wrong int
	// Quality of the returned answers: makespan/makespan_lb and
	// peak_memory/memory_seq of every result (the winner on portfolio
	// requests, the plan on forest jobs), and job stretch.
	makespanRatios, memoryRatios []float64
	stretchSum                   float64
	stretchJobs                  int
	// okTrees counts, per outcome, the trees answered correctly.
	okTrees []int
	// Per request, the decoded answers the replay compares against: one
	// Response per item on the scheduling endpoints, the job lines and the
	// summary on forest traces.
	answers []answerSet
}

type answerSet struct {
	responses []*service.Response // by item; nil where the item failed
	jobs      []*forest.JobResult // forest traces only
	summary   *forest.Summary
}

func (v *verdict) fail(class, detail string) {
	v.failed++
	v.byClass[class]++
	if class == failCheck {
		v.wrong++
	}
	if len(v.examples) < 5 {
		v.examples = append(v.examples, class+": "+detail)
	}
}

func (v *verdict) errorRate() float64 { return ratio(float64(v.failed), float64(v.attempted)) }

// check applies the answer checks to every outcome of a phase.
func check(reqs []request, outs []outcome) *verdict {
	v := &verdict{byClass: map[string]int{}, answers: make([]answerSet, len(outs)), okTrees: make([]int, len(outs))}
	for i := range outs {
		r := &reqs[outs[i].req]
		failed := v.failed
		v.checkOutcome(i, r, &outs[i])
		v.attempted += len(r.items)
		v.okTrees[i] = len(r.items) - (v.failed - failed)
	}
	return v
}

// checkOutcome checks the answer to request r.
func (v *verdict) checkOutcome(i int, r *request, o *outcome) {
	switch {
	case o.err != nil:
		for range r.items {
			v.fail(failTransport, o.err.Error())
		}
		return
	case o.status != http.StatusOK:
		class := failStatus
		if o.status == http.StatusServiceUnavailable && bytes.Contains(o.body, []byte("shed")) {
			class = failShed
		}
		for range r.items {
			v.fail(class, fmt.Sprintf("%s: status %d: %s", r.items[0].id, o.status, bytes.TrimSpace(o.body)))
		}
		return
	}
	switch r.kind {
	case kindForest:
		v.answers[i] = v.checkForest(r, o.body)
	case kindBatch:
		v.answers[i] = v.checkBatch(r, o.body)
	default:
		resp := new(service.Response)
		if err := json.Unmarshal(o.body, resp); err != nil {
			v.fail(failCheck, fmt.Sprintf("%s: undecodable answer: %v", r.items[0].id, err))
			return
		}
		v.answers[i].responses = []*service.Response{v.checkItem(&r.items[0], resp, r.kind == kindPortfolio)}
	}
}

// checkItem checks one scheduling answer against its item and records its
// quality. It returns resp when the answer passed, nil otherwise.
func (v *verdict) checkItem(it *item, resp *service.Response, portfolio bool) *service.Response {
	if resp.Error != "" {
		v.fail(failError, it.id+": "+resp.Error)
		return nil
	}
	if err := checkAnswer(it, resp, portfolio); err != nil {
		v.fail(failCheck, it.id+": "+err.Error())
		return nil
	}
	b := resp.Bounds
	for _, r := range resp.Results {
		if portfolio && r.Heuristic != *resp.Winner {
			continue
		}
		v.makespanRatios = append(v.makespanRatios, r.Makespan/b.MakespanLB)
		v.memoryRatios = append(v.memoryRatios, float64(r.PeakMemory)/float64(b.MemorySeq))
	}
	return resp
}

// relTol absorbs float rounding when comparing recomputed bounds.
const relTol = 1e-9

// checkAnswer is the per-answer check of the scheduling endpoints: the
// answer echoes the request, carries one result per selected heuristic in
// selection order, hashes the tree that was sent, reports the makespan
// lower bound the benchmark computes itself, never beats that bound, and
// keeps capped results within ⌈factor × memory_seq⌉.
func checkAnswer(it *item, resp *service.Response, portfolio bool) error {
	switch {
	case resp.ID != it.id:
		return fmt.Errorf("id %q, want %q", resp.ID, it.id)
	case len(resp.Degraded) > 0:
		return fmt.Errorf("degraded answer %v", resp.Degraded)
	case resp.TreeHash != it.hash:
		return fmt.Errorf("tree_hash %.12s…, want %.12s…", resp.TreeHash, it.hash)
	case resp.Nodes != it.nodes:
		return fmt.Errorf("nodes %d, want %d", resp.Nodes, it.nodes)
	case resp.Bounds == nil:
		return errors.New("no bounds")
	case math.Abs(resp.Bounds.MakespanLB-it.lb) > relTol*math.Max(1, it.lb):
		return fmt.Errorf("makespan_lb %g, want %g", resp.Bounds.MakespanLB, it.lb)
	case resp.Bounds.MemorySeq <= 0:
		return fmt.Errorf("memory_seq %d", resp.Bounds.MemorySeq)
	case len(resp.Results) != len(it.heuristics):
		return fmt.Errorf("%d results, want %d", len(resp.Results), len(it.heuristics))
	}
	for k, r := range resp.Results {
		switch {
		case r.Heuristic != it.heuristics[k]:
			return fmt.Errorf("result %d is %s, want %s", k, r.Heuristic, it.heuristics[k])
		case r.Error != "":
			return fmt.Errorf("%s: %s", r.Heuristic, r.Error)
		case r.Makespan < resp.Bounds.MakespanLB*(1-relTol):
			return fmt.Errorf("%s: makespan %g below makespan_lb %g", r.Heuristic, r.Makespan, resp.Bounds.MakespanLB)
		case r.PeakMemory <= 0:
			return fmt.Errorf("%s: peak_memory %d", r.Heuristic, r.PeakMemory)
		}
		if it.capFactor > 0 {
			if limit := int64(math.Ceil(it.capFactor * float64(resp.Bounds.MemorySeq))); r.PeakMemory > limit {
				return fmt.Errorf("%s: peak_memory %d above cap %d", r.Heuristic, r.PeakMemory, limit)
			}
		}
	}
	if portfolio {
		if resp.Winner == nil {
			return errors.New("portfolio answer without a winner")
		}
		found := false
		for _, r := range resp.Results {
			found = found || r.Heuristic == *resp.Winner
		}
		if !found || len(resp.Frontier) == 0 {
			return fmt.Errorf("winner %s not among the results, or empty frontier", *resp.Winner)
		}
	}
	return nil
}

// ndjsonLines splits an NDJSON body into its non-empty lines.
func ndjsonLines(body []byte) [][]byte {
	var out [][]byte
	for _, l := range bytes.Split(body, []byte("\n")) {
		if l = bytes.TrimSpace(l); len(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// checkBatch does the batch line accounting: line k of the answer must
// answer request line k, echo its id and pass the answer checks. A
// missing line, a garbled line or an error line fails its tree; lines
// beyond the request's (the server's final "batch read" error line) fail
// nothing further.
func (v *verdict) checkBatch(r *request, body []byte) answerSet {
	lines := ndjsonLines(body)
	set := answerSet{responses: make([]*service.Response, len(r.items))}
	for k := range r.items {
		it := &r.items[k]
		if k >= len(lines) {
			v.fail(failMissing, fmt.Sprintf("%s: no answer line (%d lines for %d)", it.id, len(lines), len(r.items)))
			continue
		}
		resp := new(service.Response)
		if err := json.Unmarshal(lines[k], resp); err != nil {
			v.fail(failCheck, fmt.Sprintf("%s: garbled line: %v", it.id, err))
			continue
		}
		if resp.Error != "" && resp.ID != it.id {
			// An error line answering no request line of ours: the server
			// lost this line of the body.
			v.fail(failMissing, fmt.Sprintf("%s: line %d is %q", it.id, k+1, resp.Error))
			continue
		}
		set.responses[k] = v.checkItem(it, resp, false)
	}
	return set
}

// forestSummary is the trailing line of a /v1/forest answer.
type forestSummary struct {
	Summary *forest.Summary `json:"summary"`
}

// checkForest checks a forest answer: one result line per job in trace
// order, then the summary; completed + rejected = jobs; the global peak
// stays within the cap; every completed job's plan respects the makespan
// lower bound at its planning width. A rejected job fails its tree.
func (v *verdict) checkForest(r *request, body []byte) answerSet {
	lines := ndjsonLines(body)
	set := answerSet{jobs: make([]*forest.JobResult, len(r.items))}
	var sum forestSummary
	if len(lines) != len(r.items)+1 {
		for _, it := range r.items {
			v.fail(failMissing, fmt.Sprintf("%s: %d answer lines for %d jobs", it.id, len(lines), len(r.items)))
		}
		return set
	}
	if err := json.Unmarshal(lines[len(r.items)], &sum); err != nil || sum.Summary == nil {
		for _, it := range r.items {
			v.fail(failCheck, fmt.Sprintf("%s: bad summary line: %v", it.id, err))
		}
		return set
	}
	s := sum.Summary
	if s.Jobs != len(r.items) || s.Completed+s.Rejected != s.Jobs || s.PeakResident > s.MemCap {
		for _, it := range r.items {
			v.fail(failCheck, fmt.Sprintf("%s: summary jobs %d completed %d rejected %d peak %d cap %d",
				it.id, s.Jobs, s.Completed, s.Rejected, s.PeakResident, s.MemCap))
		}
		return set
	}
	set.summary = s
	for k := range r.items {
		it := &r.items[k]
		jr := new(forest.JobResult)
		if err := json.Unmarshal(lines[k], jr); err != nil {
			v.fail(failCheck, fmt.Sprintf("%s: garbled job line: %v", it.id, err))
			continue
		}
		if err := checkJob(it, jr); err != nil {
			if jr.Status == forest.StatusRejected {
				v.fail(failError, it.id+": rejected: "+jr.Reason)
			} else {
				v.fail(failCheck, it.id+": "+err.Error())
			}
			continue
		}
		set.jobs[k] = jr
		v.makespanRatios = append(v.makespanRatios, jr.PlanMakespan/jobLB(it, jr.Width))
		v.memoryRatios = append(v.memoryRatios, float64(jr.PlanPeakMemory)/float64(jr.MemSeq))
		v.stretchSum += jr.Stretch
		v.stretchJobs++
	}
	return set
}

// jobLB is the makespan lower bound of a forest job planned on width
// unit-speed processors.
func jobLB(it *item, width int) float64 {
	return math.Max(it.totalW/float64(max(width, 1)), it.cp)
}

func checkJob(it *item, jr *forest.JobResult) error {
	switch {
	case jr.ID != it.id:
		return fmt.Errorf("job id %q, want %q", jr.ID, it.id)
	case jr.Status != forest.StatusCompleted:
		return fmt.Errorf("status %q", jr.Status)
	case jr.Nodes != it.nodes:
		return fmt.Errorf("nodes %d, want %d", jr.Nodes, it.nodes)
	case jr.PlanMakespan < jobLB(it, jr.Width)*(1-relTol):
		return fmt.Errorf("plan makespan %g below lower bound %g", jr.PlanMakespan, jobLB(it, jr.Width))
	case jr.MemSeq <= 0 || jr.PlanPeakMemory <= 0:
		return fmt.Errorf("mem_seq %d, plan peak %d", jr.MemSeq, jr.PlanPeakMemory)
	case jr.Finish < jr.Arrival:
		return fmt.Errorf("finish %g before arrival %g", jr.Finish, jr.Arrival)
	}
	return nil
}

// summarizeFailures renders the failure classes for the report.
func (v *verdict) summarizeFailures() string {
	if v.failed == 0 {
		return "none"
	}
	var b strings.Builder
	for _, c := range []string{failTransport, failStatus, failShed, failError, failMissing, failCheck} {
		if n := v.byClass[c]; n > 0 {
			fmt.Fprintf(&b, "%s %d, ", c, n)
		}
	}
	return strings.TrimSuffix(b.String(), ", ")
}
