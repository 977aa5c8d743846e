package main

import (
	"math"
	"strings"
	"testing"
)

// checkGate fails t unless err is nil when wantErr is empty and otherwise
// contains wantErr.
func checkGate(t *testing.T, err error, wantErr string) {
	t.Helper()
	switch {
	case wantErr == "" && err != nil:
		t.Fatalf("gate failed: %v", err)
	case wantErr != "" && err == nil:
		t.Fatalf("gate passed, want failure %q", wantErr)
	case wantErr != "" && !strings.Contains(err.Error(), wantErr):
		t.Fatalf("gate error %q, want it to contain %q", err, wantErr)
	}
}

func TestComparePortfolio(t *testing.T) {
	report := func(p50, perSec float64) *Report {
		return &Report{Scale: "quick", Seed: 42, Processors: []int{2, 8}, P50LatencyUS: p50, SchedulesPerSec: perSec}
	}
	base := report(100, 1e4)
	for _, tc := range []struct {
		name    string
		rep     *Report
		wantErr string
	}{
		{"same numbers pass", report(100, 1e4), ""},
		{"improvement passes", report(40, 3e4), ""},
		{"p50 at the limit passes", report(200, 5e3), ""},
		{"p50 regression fails", report(201, 1e4), "p50 latency 201µs exceeds 2× baseline 100µs"},
		{"NaN p50 fails", report(math.NaN(), 1e4), "p50 latency NaNµs"},
		{"throughput regression fails", report(100, 4999), "throughput 4999 schedules/sec below baseline 10000 / 2"},
		{"NaN throughput fails", report(100, math.NaN()), "throughput NaN schedules/sec"},
		{"other seed fails", func() *Report { r := report(100, 1e4); r.Seed = 7; return r }(),
			"baseline is quick scale seed 42 p[2 8]; this run is quick scale seed 7 p[2 8]"},
		{"other machine sizes fail", func() *Report { r := report(100, 1e4); r.Processors = []int{2}; return r }(),
			"this run is quick scale seed 42 p[2]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGate(t, comparePortfolio(base, tc.rep, 2), tc.wantErr)
		})
	}
}

func TestCompareForest(t *testing.T) {
	report := func(perSec float64, completed map[string]int) *ForestReport {
		r := &ForestReport{Suite: "forest", Scale: "quick", Seed: 42, Processors: 8, Jobs: 60,
			MemCap: 2963, SimJobsPerSec: perSec, Policies: make(map[string]ForestPolicyStats)}
		for name, c := range completed {
			r.Policies[name] = ForestPolicyStats{Completed: c, Makespan: 5578.524270651017,
				Utilization: 0.9011852609092624, PeakResident: 2215, MeanLatency: 2444.8135117459474,
				P99Latency: 4766.715432890312, MeanStretch: 4.917149138873854, MeanWait: 1225.5222583514792}
		}
		return r
	}
	all := map[string]int{"fifo": 60, "sjf": 60, "smallest_mseq": 60, "weighted_fair": 60}
	base := report(1000, all)
	edit := func(name string, f func(*ForestPolicyStats)) *ForestReport {
		r := report(1000, all)
		st := r.Policies[name]
		f(&st)
		r.Policies[name] = st
		return r
	}
	for _, tc := range []struct {
		name    string
		rep     *ForestReport
		wantErr string
	}{
		{"same numbers pass", report(1000, all), ""},
		{"changed makespan fails", edit("sjf", func(st *ForestPolicyStats) { st.Makespan = 5578.524270651018 }),
			"policy sjf makespan 5578.524270651018, baseline 5578.524270651017"},
		{"changed peak fails", edit("weighted_fair", func(st *ForestPolicyStats) { st.PeakResident-- }),
			"policy weighted_fair peak_resident 2214, baseline 2215"},
		{"NaN stretch fails", edit("fifo", func(st *ForestPolicyStats) { st.MeanStretch = math.NaN() }),
			"policy fifo mean_stretch NaN, baseline 4.917149138873854"},
		{"more completions fail", edit("fifo", func(st *ForestPolicyStats) { st.Completed++ }),
			"policy fifo completed 61 jobs, baseline 60"},
		{"changed mem_cap fails", func() *ForestReport { r := report(1000, all); r.MemCap++; return r }(),
			"mem_cap 2964, baseline 2963"},
		{"improvement passes", report(5000, all), ""},
		{"throughput regression fails", report(499, all), "simulation throughput 499 jobs/sec below baseline 1000 / 2"},
		{"NaN throughput fails", report(math.NaN(), all), "simulation throughput NaN jobs/sec"},
		{"missing policy fails", report(1000, map[string]int{"fifo": 60, "sjf": 60, "weighted_fair": 60}),
			"policy smallest_mseq present in baseline but not in this run"},
		{"fewer completions fail", report(1000, map[string]int{"fifo": 60, "sjf": 59, "smallest_mseq": 60, "weighted_fair": 60}),
			"policy sjf completed 59 jobs, baseline 60"},
		{"the first failing policy by name is reported", report(1000, map[string]int{"fifo": 60, "sjf": 1, "smallest_mseq": 1, "weighted_fair": 1}),
			"policy sjf completed 1 jobs"},
		{"other seed fails", func() *ForestReport { r := report(1000, all); r.Seed = 7; return r }(),
			"baseline is forest/quick seed 42 (60 jobs, p=8); this run is forest/quick seed 7 (60 jobs, p=8)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Maps iterate in a new order each time: the verdict must not.
			for range 20 {
				checkGate(t, compareForest(base, tc.rep, 2), tc.wantErr)
			}
		})
	}
}

func TestCompareGap(t *testing.T) {
	report := func(proved int, perSec float64, worst map[string]float64) *GapReport {
		r := &GapReport{Suite: "gap", Scale: "quick", Seed: 42, Processors: 2, Instances: 36, NodeBudget: 1 << 20,
			Proved: proved, ProvedPerSec: perSec, Heuristics: make(map[string]GapHeuristicStats)}
		for name, w := range worst {
			r.Heuristics[name] = GapHeuristicStats{WorstGap: w}
		}
		return r
	}
	gaps := map[string]float64{"ParDeepestFirst": 1.25, "ParInnerFirst": 1.2, "Sequential": 2}
	with := func(name string, w float64) map[string]float64 {
		m := map[string]float64{}
		for k, v := range gaps {
			m[k] = v
		}
		if math.IsInf(w, -1) {
			delete(m, name)
		} else {
			m[name] = w
		}
		return m
	}
	base := report(36, 100, gaps)
	for _, tc := range []struct {
		name    string
		rep     *GapReport
		wantErr string
	}{
		{"same numbers pass", report(36, 100, gaps), ""},
		{"improvement passes", report(36, 400, with("Sequential", 1.5)), ""},
		{"fewer proved fails", report(35, 100, gaps), "proved 35 optima, baseline proved 36"},
		{"throughput regression fails", report(36, 49, gaps), "exact throughput 49.0 proved/sec below baseline 100.0 / 2"},
		{"NaN throughput fails", report(36, math.NaN(), gaps), "exact throughput NaN proved/sec"},
		{"worst-gap growth fails", report(36, 100, with("ParInnerFirst", 1.2001)),
			"heuristic ParInnerFirst worst gap 1.200100000 exceeds baseline 1.200000000"},
		{"NaN worst gap fails", report(36, 100, with("ParInnerFirst", math.NaN())), "heuristic ParInnerFirst worst gap NaN"},
		{"missing heuristic fails", report(36, 100, with("Sequential", math.Inf(-1))),
			"heuristic Sequential present in baseline but not in this run"},
		{"the first failing heuristic by name is reported", report(36, 100, map[string]float64{"ParDeepestFirst": 9, "ParInnerFirst": 9, "Sequential": 9}),
			"heuristic ParDeepestFirst worst gap"},
		{"other seed fails", func() *GapReport { r := report(36, 100, gaps); r.Seed = 7; return r }(),
			"baseline is gap/quick seed 42 (36 instances, p=2, budget 1048576); this run is gap/quick seed 7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for range 20 {
				checkGate(t, compareGap(base, tc.rep, 2), tc.wantErr)
			}
		})
	}
}
