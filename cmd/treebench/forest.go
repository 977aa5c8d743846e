package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"time"

	"treesched/internal/forest"
)

// ForestReport is the JSON document of the forest benchmark suite: one
// shared trace simulated under every admission policy, with per-policy
// quality numbers and the simulation throughput the regression gate
// watches.
type ForestReport struct {
	Suite        string  `json:"suite"`
	Scale        string  `json:"scale"`
	Seed         int64   `json:"seed"`
	Processors   int     `json:"p"`
	Jobs         int     `json:"jobs"`
	MemCapFactor float64 `json:"mem_cap_factor"`
	// MemCap is the resolved absolute cap (factor × the trace's largest
	// M_seq), identical across policies.
	MemCap int64 `json:"mem_cap"`
	// Policies maps policy name to its quality stats on the shared trace.
	Policies map[string]ForestPolicyStats `json:"policies"`
	// SimJobsPerSec is jobs simulated per wall-clock second across all
	// policy runs (planning included) — the gated throughput metric.
	SimJobsPerSec float64 `json:"sim_jobs_per_sec"`
	WallMS        float64 `json:"wall_ms"`
}

// ForestPolicyStats summarizes one policy's run over the shared trace.
type ForestPolicyStats struct {
	Completed    int     `json:"completed"`
	Rejected     int     `json:"rejected"`
	Makespan     float64 `json:"makespan"`
	Utilization  float64 `json:"utilization"`
	PeakResident int64   `json:"peak_resident"`
	MeanLatency  float64 `json:"mean_latency"`
	P99Latency   float64 `json:"p99_latency"`
	MeanStretch  float64 `json:"mean_stretch"`
	MeanWait     float64 `json:"mean_wait"`
}

// forestSuite builds the benchmark trace for a scale.
func forestSuite(scale string, seed int64) ([]forest.Job, int, error) {
	var cfg forest.GenConfig
	var p int
	switch scale {
	case "quick":
		cfg = forest.GenConfig{Jobs: 60, Seed: seed, MaxNodes: 200, Arrivals: "bursty", Rate: 0.1}
		p = 8
	case "standard":
		cfg = forest.GenConfig{Jobs: 400, Seed: seed, MaxNodes: 1000, Arrivals: "poisson", Rate: 0.02, Dataset: true}
		p = 8
	default:
		return nil, 0, fmt.Errorf("unknown scale %q (quick or standard)", scale)
	}
	jobs, err := forest.GenTrace(cfg)
	return jobs, p, err
}

const forestCapFactor = 1.5

// runForestSuite simulates the trace under every admission policy and
// assembles the report.
func runForestSuite(scale string, seed int64) (*ForestReport, error) {
	jobs, p, err := forestSuite(scale, seed)
	if err != nil {
		return nil, err
	}
	rep := &ForestReport{
		Suite:        "forest",
		Scale:        scale,
		Seed:         seed,
		Processors:   p,
		Jobs:         len(jobs),
		MemCapFactor: forestCapFactor,
		Policies:     make(map[string]ForestPolicyStats, 4),
	}
	ctx := context.Background()
	start := time.Now()
	simulated := 0
	for _, pol := range forest.Policies() {
		res, err := forest.Run(ctx, jobs, forest.Config{
			Processors:   p,
			MemCapFactor: forestCapFactor,
			Policy:       pol,
		})
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", pol, err)
		}
		s := res.Summary
		if s.PeakResident > s.MemCap {
			return nil, fmt.Errorf("policy %s: peak resident %d exceeds cap %d", pol, s.PeakResident, s.MemCap)
		}
		rep.MemCap = s.MemCap
		rep.Policies[pol.String()] = ForestPolicyStats{
			Completed:    s.Completed,
			Rejected:     s.Rejected,
			Makespan:     s.Makespan,
			Utilization:  s.Utilization,
			PeakResident: s.PeakResident,
			MeanLatency:  s.MeanLatency,
			P99Latency:   s.P99Latency,
			MeanStretch:  s.MeanStretch,
			MeanWait:     s.MeanWait,
		}
		simulated += s.Jobs
	}
	wall := time.Since(start)
	rep.WallMS = float64(wall.Microseconds()) / 1000
	if wall > 0 {
		rep.SimJobsPerSec = float64(simulated) / wall.Seconds()
	}
	return rep, nil
}

func printForestReport(rep *ForestReport) {
	fmt.Printf("forest bench: %s scale, %d jobs on p=%d, cap %g×maxM_seq, 4 policies\n",
		rep.Scale, rep.Jobs, rep.Processors, rep.MemCapFactor)
	fmt.Printf("simulated %.0f jobs/sec (wall %.1f ms, planning included)\n\n", rep.SimJobsPerSec, rep.WallMS)
	names := make([]string, 0, len(rep.Policies))
	for n := range rep.Policies {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-14s %9s %8s %9s %9s %8s %8s\n", "policy", "meanLat", "p99Lat", "stretch", "util", "peakMem", "rejected")
	for _, n := range names {
		st := rep.Policies[n]
		fmt.Printf("%-14s %9.1f %8.1f %9.2f %9.3f %8d %8d\n",
			n, st.MeanLatency, st.P99Latency, st.MeanStretch, st.Utilization, st.PeakResident, st.Rejected)
	}
}

// forestGate reads the baseline report at path and gates rep against it
// (see compareForest).
func forestGate(rep *ForestReport, path string, maxratio float64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base ForestReport
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if err := compareForest(&base, rep, maxratio); err != nil {
		return fmt.Errorf("vs baseline %s: %w", path, err)
	}
	return nil
}

// compareForest errors when rep's simulation throughput fell below base's
// by more than maxratio, or when rep's outputs differ from base's: the
// resolved mem_cap, a baseline policy missing from rep, or any field of a
// policy's stats. Outputs must match exactly, because the forest plans
// with the scheduling core, whose schedules are byte-stable. The checks
// are written so a NaN fails (!(x >= limit), and NaN != NaN), and
// policies are checked in name order so a run with several failures
// always reports the same one.
func compareForest(base, rep *ForestReport, maxratio float64) error {
	if base.Suite != rep.Suite || base.Scale != rep.Scale || base.Seed != rep.Seed ||
		base.Jobs != rep.Jobs || base.Processors != rep.Processors {
		return fmt.Errorf("baseline is %s/%s seed %d (%d jobs, p=%d); this run is %s/%s seed %d (%d jobs, p=%d)",
			base.Suite, base.Scale, base.Seed, base.Jobs, base.Processors,
			rep.Suite, rep.Scale, rep.Seed, rep.Jobs, rep.Processors)
	}
	if base.SimJobsPerSec > 0 && !(rep.SimJobsPerSec >= base.SimJobsPerSec/maxratio) {
		return fmt.Errorf("simulation throughput %.0f jobs/sec below baseline %.0f / %g",
			rep.SimJobsPerSec, base.SimJobsPerSec, maxratio)
	}
	if rep.MemCap != base.MemCap {
		return fmt.Errorf("mem_cap %d, baseline %d", rep.MemCap, base.MemCap)
	}
	for _, name := range slices.Sorted(maps.Keys(base.Policies)) {
		st, ok := rep.Policies[name]
		if !ok {
			return fmt.Errorf("policy %s present in baseline but not in this run", name)
		}
		bst := base.Policies[name]
		if st.Completed != bst.Completed {
			return fmt.Errorf("policy %s completed %d jobs, baseline %d", name, st.Completed, bst.Completed)
		}
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"rejected", st.Rejected, bst.Rejected},
			{"makespan", st.Makespan, bst.Makespan},
			{"utilization", st.Utilization, bst.Utilization},
			{"peak_resident", st.PeakResident, bst.PeakResident},
			{"mean_latency", st.MeanLatency, bst.MeanLatency},
			{"p99_latency", st.P99Latency, bst.P99Latency},
			{"mean_stretch", st.MeanStretch, bst.MeanStretch},
			{"mean_wait", st.MeanWait, bst.MeanWait},
		} {
			if f.got != f.want {
				return fmt.Errorf("policy %s %s %v, baseline %v", name, f.name, f.got, f.want)
			}
		}
	}
	return nil
}

// forestMain is the -suite forest entry point.
func forestMain(scale string, seed int64, out, baseline string, maxratio float64) {
	rep, err := runForestSuite(scale, seed)
	if err != nil {
		fatal(err)
	}
	printForestReport(rep)
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", out)
	}
	if baseline != "" {
		if err := forestGate(rep, baseline, maxratio); err != nil {
			fmt.Fprintln(os.Stderr, "treebench: REGRESSION:", err)
			os.Exit(1)
		}
		fmt.Printf("regression gate vs %s passed (maxratio %g)\n", baseline, maxratio)
	}
}
