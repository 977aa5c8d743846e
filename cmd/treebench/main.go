// Command treebench benchmarks the scheduling engines over generated
// suites and writes machine-readable reports, seeding the repo's
// performance trajectory.
//
// The portfolio suite (default) measures per-run latency percentiles,
// scheduling throughput, Pareto-frontier sizes, the racing speedup, and
// which heuristic wins under each objective. The forest suite simulates
// one generated job trace under every admission policy and reports
// per-policy latency/stretch/utilization plus the simulation throughput.
//
// Usage:
//
//	treebench -quick                                  # CI scale, writes BENCH_portfolio.json
//	treebench -scale standard -out bench.json
//	treebench -quick -baseline BENCH_portfolio.json   # regression gate: fail on >2× slowdown
//	treebench -suite forest -quick                    # writes BENCH_forest.json
//	treebench -suite forest -quick -baseline BENCH_forest.json
//	treebench -suite core -quick -baseline BENCH_core.json
//	treebench -suite gap -quick -baseline BENCH_gap.json
//	treebench -quick -cpuprofile cpu.prof -memprofile mem.prof
//
// The core suite microbenchmarks the scheduling primitives (ns/op,
// allocs/op, ops/sec per heuristic × tree family × size). The gap suite
// is the optimality-gap ledger: it proves optima with the exact
// branch-and-bound on small trees and reports every heuristic's worst
// and mean makespan gap against them. The regression gate compares the
// suite's key metrics (p50 latency and schedules/sec for portfolio;
// simulated jobs/sec and per-policy completions for forest; per-bench
// geomean ns/op and allocs/op for core; proved-instances/sec and
// per-heuristic worst gap for gap) against a previously written report
// and exits non-zero on a >-maxratio degradation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"treesched/internal/dataset"
	"treesched/internal/portfolio"
	"treesched/internal/sched"
	"treesched/internal/stats"
	"treesched/internal/tree"
)

// objectives is the fixed panel reported in the winners table; it spans
// the paper's trade-off from pure makespan to pure memory.
var objectives = []portfolio.Objective{
	portfolio.MinMakespan(),
	portfolio.MemoryUnderDeadline(1.5),
	portfolio.Weighted(0.5),
	portfolio.MakespanUnderMemCap(2),
	portfolio.MinMemory(),
}

// Report is the JSON document treebench writes and the regression gate
// reads back.
type Report struct {
	Scale            string  `json:"scale"`
	Seed             int64   `json:"seed"`
	Processors       []int   `json:"processors"`
	Trees            int     `json:"trees"`
	Runs             int     `json:"runs"`
	CandidatesPerRun int     `json:"candidates_per_run"`
	P50LatencyUS     float64 `json:"p50_latency_us"`
	P99LatencyUS     float64 `json:"p99_latency_us"`
	SchedulesPerSec  float64 `json:"schedules_per_sec"`
	MeanFrontierSize float64 `json:"mean_frontier_size"`
	MaxFrontierSize  int     `json:"max_frontier_size"`
	// MeanSpeedup is the mean over runs of (sum of per-candidate times) /
	// (portfolio wall time): the latency win of racing over running the
	// candidates back to back. ~1 on a single-core machine, approaching
	// the candidate count with enough cores.
	MeanSpeedup float64 `json:"mean_speedup"`
	// Winners[objective][heuristic] counts the runs the heuristic won.
	Winners map[string]map[string]int `json:"winners"`
}

func main() {
	var (
		suiteName = flag.String("suite", "portfolio", "benchmark suite: portfolio, forest, core, gap or obs")
		quick     = flag.Bool("quick", false, "shorthand for -scale quick (the CI scale)")
		scale     = flag.String("scale", "standard", "suite scale: quick or standard")
		seed      = flag.Int64("seed", 42, "suite seed")
		plist     = flag.String("p", "2,8", "comma-separated processor counts (portfolio suite)")
		out       = flag.String("out", "auto", "output report path ('auto': BENCH_<suite>.json; '' to skip writing)")
		baseline  = flag.String("baseline", "", "prior report to regression-check against")
		maxratio  = flag.Float64("maxratio", 2, "fail when the suite's gated metrics regress by more than this factor")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the suite to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile at suite end to this file")
		machSpec  = flag.String("machine", "4x1.0+4x0.5", "heterogeneous machine spec for the core suite's */het rows (same processor count as the uniform rows)")
	)
	flag.Parse()
	if *quick {
		*scale = "quick"
	}
	if *out == "auto" {
		// The obs rows live inside BENCH_core.json; the standalone obs
		// suite writes no report of its own unless -out names one.
		if *suiteName == "obs" {
			*out = ""
		} else {
			*out = "BENCH_" + *suiteName + ".json"
		}
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	switch *suiteName {
	case "forest":
		forestMain(*scale, *seed, *out, *baseline, *maxratio)
		return
	case "core":
		coreMain(*scale, *seed, *machSpec, *out, *baseline, *maxratio)
		return
	case "gap":
		gapMain(*scale, *seed, *out, *baseline, *maxratio)
		return
	case "obs":
		obsMain(*scale, *seed, *machSpec, *out, *baseline, *maxratio)
		return
	case "portfolio":
	default:
		fatal(fmt.Errorf("unknown suite %q (portfolio, forest, core, gap or obs)", *suiteName))
	}
	ps, err := parsePList(*plist)
	if err != nil {
		fatal(err)
	}

	trees, err := suite(*scale, *seed)
	if err != nil {
		fatal(err)
	}
	rep, err := run(trees, ps, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	printReport(rep)

	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *baseline != "" {
		if err := gate(rep, *baseline, *maxratio); err != nil {
			fmt.Fprintln(os.Stderr, "treebench: REGRESSION:", err)
			os.Exit(1)
		}
		fmt.Printf("regression gate vs %s passed (maxratio %g)\n", *baseline, *maxratio)
	}
}

// suite builds the benchmark trees: the deterministic synthetic assembly
// trees of internal/dataset plus random families from the tree generators,
// so both realistic multifrontal shapes and adversarial shapes (chains,
// forks, caterpillars) are covered.
func suite(scale string, seed int64) ([]*tree.Tree, error) {
	var ds dataset.Scale
	var sizes []int
	switch scale {
	case "quick":
		ds, sizes = dataset.Quick, []int{100, 300}
	case "standard":
		ds, sizes = dataset.Standard, []int{1000, 5000}
	default:
		return nil, fmt.Errorf("unknown scale %q (quick or standard)", scale)
	}
	insts, err := dataset.Collection(ds, seed)
	if err != nil {
		return nil, err
	}
	trees := make([]*tree.Tree, 0, len(insts)+6*len(sizes))
	for _, inst := range insts {
		trees = append(trees, inst.Tree)
	}
	rng := rand.New(rand.NewSource(seed))
	ws := tree.WeightSpec{WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20}
	for _, n := range sizes {
		trees = append(trees,
			tree.RandomAttachment(rng, n, ws),
			tree.RandomPrufer(rng, n, ws),
			tree.RandomBinary(rng, n, ws),
			tree.Chain(rng, n, ws),
			tree.Fork(rng, n, ws),
			tree.Caterpillar(rng, n/4, 3, ws),
		)
	}
	return trees, nil
}

func run(trees []*tree.Tree, ps []int, scale string, seed int64) (*Report, error) {
	rep := &Report{
		Scale:            scale,
		Seed:             seed,
		Processors:       ps,
		Trees:            len(trees),
		CandidatesPerRun: len(portfolio.DefaultCandidates()),
		Winners:          make(map[string]map[string]int, len(objectives)),
	}
	for _, obj := range objectives {
		rep.Winners[obj.String()] = make(map[string]int)
	}
	var (
		latencies    []float64
		frontierSum  int
		speedups     []float64
		totalElapsed time.Duration
	)
	ctx := context.Background()
	for _, t := range trees {
		for _, p := range ps {
			res, err := portfolio.Run(ctx, t, objectives[0], portfolio.Options{
				Options: sched.Options{Processors: p},
			})
			if err != nil {
				return nil, err
			}
			rep.Runs++
			latencies = append(latencies, float64(res.Elapsed.Microseconds()))
			totalElapsed += res.Elapsed
			frontierSum += len(res.Frontier)
			if n := len(res.Frontier); n > rep.MaxFrontierSize {
				rep.MaxFrontierSize = n
			}
			var sum time.Duration
			for _, c := range res.Candidates {
				if c.Err != nil {
					return nil, fmt.Errorf("%s failed on a %d-node tree: %w", c.ID, t.Len(), c.Err)
				}
				sum += c.Elapsed
			}
			if res.Elapsed > 0 {
				speedups = append(speedups, float64(sum)/float64(res.Elapsed))
			}
			// The winners table re-selects over the same raced candidates:
			// selection is pure, so one race serves every objective.
			for _, obj := range objectives {
				if w := obj.Select(res.Candidates, res.MakespanLB, res.MemorySeq); w >= 0 {
					rep.Winners[obj.String()][res.Candidates[w].ID.String()]++
				}
			}
		}
	}
	rep.P50LatencyUS = stats.Percentile(latencies, 50)
	rep.P99LatencyUS = stats.Percentile(latencies, 99)
	if totalElapsed > 0 {
		rep.SchedulesPerSec = float64(rep.Runs*rep.CandidatesPerRun) / totalElapsed.Seconds()
	}
	if rep.Runs > 0 {
		rep.MeanFrontierSize = float64(frontierSum) / float64(rep.Runs)
	}
	rep.MeanSpeedup = stats.Mean(speedups)
	return rep, nil
}

func printReport(rep *Report) {
	fmt.Printf("portfolio bench: %s scale, %d trees × p%v = %d runs, %d candidates each\n",
		rep.Scale, rep.Trees, rep.Processors, rep.Runs, rep.CandidatesPerRun)
	fmt.Printf("latency p50 %.0fµs  p99 %.0fµs  |  %.0f schedules/sec  |  racing speedup ×%.2f\n",
		rep.P50LatencyUS, rep.P99LatencyUS, rep.SchedulesPerSec, rep.MeanSpeedup)
	fmt.Printf("frontier size mean %.2f max %d\n\n", rep.MeanFrontierSize, rep.MaxFrontierSize)
	fmt.Println("winners per objective (share of runs):")
	for _, obj := range objectives {
		counts := rep.Winners[obj.String()]
		names := make([]string, 0, len(counts))
		for n := range counts {
			names = append(names, n)
		}
		// Most frequent first; name order breaks ties deterministically.
		sort.Slice(names, func(a, b int) bool {
			if counts[names[a]] != counts[names[b]] {
				return counts[names[a]] > counts[names[b]]
			}
			return names[a] < names[b]
		})
		parts := make([]string, 0, len(names))
		for _, n := range names {
			parts = append(parts, fmt.Sprintf("%s %.0f%%", n, 100*float64(counts[n])/float64(rep.Runs)))
		}
		fmt.Printf("  %-28s %s\n", obj, strings.Join(parts, ", "))
	}
}

// gate reads the baseline report at path and gates rep against it (see
// comparePortfolio).
func gate(rep *Report, path string, maxratio float64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if err := comparePortfolio(&base, rep, maxratio); err != nil {
		return fmt.Errorf("vs baseline %s: %w", path, err)
	}
	return nil
}

// comparePortfolio errors when rep's p50 latency or throughput regressed
// by more than maxratio against base. The limits are written as
// !(x <= limit) and !(x >= limit) so a NaN measurement fails too.
func comparePortfolio(base, rep *Report, maxratio float64) error {
	// Refuse apples-to-oranges comparisons: the gate is only meaningful
	// against a baseline of the same suite.
	if base.Scale != rep.Scale || base.Seed != rep.Seed || !slices.Equal(base.Processors, rep.Processors) {
		return fmt.Errorf("baseline is %s scale seed %d p%v; this run is %s scale seed %d p%v",
			base.Scale, base.Seed, base.Processors, rep.Scale, rep.Seed, rep.Processors)
	}
	if base.P50LatencyUS > 0 && !(rep.P50LatencyUS <= maxratio*base.P50LatencyUS) {
		return fmt.Errorf("p50 latency %.0fµs exceeds %g× baseline %.0fµs",
			rep.P50LatencyUS, maxratio, base.P50LatencyUS)
	}
	if base.SchedulesPerSec > 0 && !(rep.SchedulesPerSec >= base.SchedulesPerSec/maxratio) {
		return fmt.Errorf("throughput %.0f schedules/sec below baseline %.0f / %g",
			rep.SchedulesPerSec, base.SchedulesPerSec, maxratio)
	}
	return nil
}

func parsePList(s string) ([]int, error) {
	var ps []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad processor count %q", part)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "treebench:", err)
	os.Exit(1)
}
