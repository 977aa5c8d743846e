package main

import (
	"math"
	"strings"
	"testing"
)

// coreReport builds a quick-scale report with the given per-bench geomean
// ns/op and allocs/op and aggregate schedules/sec.
func coreReport(ns, allocs map[string]float64, schedPerSec float64) *CoreReport {
	return &CoreReport{
		Scale: "quick", Seed: 42, Processors: coreProcs, Machine: "4x1+4x0.5",
		SchedulesPerSec:   schedPerSec,
		MeanNsByBench:     ns,
		MeanAllocsByBench: allocs,
	}
}

func TestCompareCore(t *testing.T) {
	base := coreReport(
		map[string]float64{"ParInnerFirst": 1000, "Sequential": 500, "Obs/CounterInc": 10},
		map[string]float64{"ParInnerFirst": 3, "Sequential": 1, "Obs/CounterInc": 0},
		1e5)
	cases := []struct {
		name    string
		rep     *CoreReport
		owns    func(string) bool
		wantErr string // "" means the gate passes
	}{
		{
			name: "same numbers pass",
			rep: coreReport(
				map[string]float64{"ParInnerFirst": 1000, "Sequential": 500, "Obs/CounterInc": 10},
				map[string]float64{"ParInnerFirst": 3, "Sequential": 1, "Obs/CounterInc": 0},
				1e5),
			owns: ownsAll,
		},
		{
			name: "improvement passes",
			rep: coreReport(
				map[string]float64{"ParInnerFirst": 400, "Sequential": 100, "Obs/CounterInc": 2},
				map[string]float64{"ParInnerFirst": 0, "Sequential": 0, "Obs/CounterInc": 0},
				5e5),
			owns: ownsAll,
		},
		{
			name: "ns regression fails",
			rep: coreReport(
				map[string]float64{"ParInnerFirst": 2100, "Sequential": 500, "Obs/CounterInc": 10},
				map[string]float64{"ParInnerFirst": 3, "Sequential": 1, "Obs/CounterInc": 0},
				1e5),
			owns:    ownsAll,
			wantErr: "ParInnerFirst geomean 2100 ns/op exceeds 2× baseline 1000",
		},
		{
			name: "NaN ns fails",
			rep: coreReport(
				map[string]float64{"ParInnerFirst": 1000, "Sequential": math.NaN(), "Obs/CounterInc": 10},
				map[string]float64{"ParInnerFirst": 3, "Sequential": 1, "Obs/CounterInc": 0},
				1e5),
			owns:    ownsAll,
			wantErr: "Sequential geomean NaN ns/op",
		},
		{
			name: "allocs regression fails",
			rep: coreReport(
				map[string]float64{"ParInnerFirst": 1000, "Sequential": 500, "Obs/CounterInc": 10},
				map[string]float64{"ParInnerFirst": 3, "Sequential": 1, "Obs/CounterInc": 1.5},
				1e5),
			owns:    ownsAll,
			wantErr: "Obs/CounterInc allocs/op 1.50 exceeds 2× baseline 0.00",
		},
		{
			name: "missing owned row fails",
			rep: coreReport(
				map[string]float64{"ParInnerFirst": 1000, "Obs/CounterInc": 10},
				map[string]float64{"ParInnerFirst": 3, "Obs/CounterInc": 0},
				1e5),
			owns:    ownsAll,
			wantErr: "baseline bench Sequential is missing from this run",
		},
		{
			name: "obs run against the full baseline passes",
			rep: coreReport(
				map[string]float64{"Obs/CounterInc": 12},
				map[string]float64{"Obs/CounterInc": 0},
				0),
			owns: ownsObs,
		},
		{
			name: "obs run missing an obs row fails",
			rep: coreReport(
				map[string]float64{"Obs/HistogramObserve": 12},
				map[string]float64{"Obs/HistogramObserve": 0},
				0),
			owns:    ownsObs,
			wantErr: "baseline bench Obs/CounterInc is missing from this run",
		},
		{
			name: "schedules/sec floor fails",
			rep: coreReport(
				map[string]float64{"ParInnerFirst": 1000, "Sequential": 500, "Obs/CounterInc": 10},
				map[string]float64{"ParInnerFirst": 3, "Sequential": 1, "Obs/CounterInc": 0},
				4e4),
			owns:    ownsAll,
			wantErr: "aggregate 40000 schedules/sec below baseline 100000 / 2",
		},
		{
			name: "other seed fails",
			rep: func() *CoreReport {
				r := coreReport(base.MeanNsByBench, base.MeanAllocsByBench, 1e5)
				r.Seed = 7
				return r
			}(),
			owns:    ownsAll,
			wantErr: "baseline is quick scale seed 42 p8; this run is quick scale seed 7 p8",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compareCore(base, tc.rep, tc.owns, 2)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want failure %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("gate error %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestOwnership(t *testing.T) {
	for _, bench := range []string{"ParInnerFirst", "ParInnerFirst/stress1M", "Obs/Exposition"} {
		if !ownsAll(bench) {
			t.Errorf("core suite does not own %s", bench)
		}
	}
	if !ownsObs("Obs/Exposition") || ownsObs("ParInnerFirst") || ownsObs("Observe") {
		t.Error("obs suite must own exactly the Obs/* rows")
	}
}
