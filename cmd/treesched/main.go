// Command treesched schedules a tree task graph (in the treegen format) on
// p processors with the paper's heuristics and reports makespan and peak
// memory against the lower bounds.
//
// Usage:
//
//	treesched -in tree.txt -p 8                  # all four heuristics
//	treesched -in tree.txt -p 8 -heuristic ParDeepestFirst
//	treesched -in tree.txt -p 2 -heuristic Exact -budget 500k  # exact branch-and-bound (small trees)
//	treesched -in tree.txt -machine 2x1.0+2x0.5  # heterogeneous (related) processors
//	treesched -in tree.txt -p 8 -memcap 2.0      # + memory-capped run at 2×M_seq
//	treesched -in tree.txt -p 8 -portfolio       # race the portfolio, pick min_makespan
//	treesched -in tree.txt -p 8 -objective makespan_under_memcap:1.5
//	treesched -in tree.txt -p 8 -portfolio -trace  # print the stage span tree
//	treesched -in tree.txt -p 8 -timeline out.json # schedule as a Perfetto timeline
//	treesched -forest trace.ndjson -p 8 -policy sjf -capfactor 2
//	treesched -forest trace.ndjson -p 8 -timeline out.json  # one Perfetto track per job
//	treesched -forest trace.ndjson -machine 2x1.0+2x0.5 -policy sjf
//
// The -forest mode simulates an NDJSON job trace (see `treegen -forest`)
// on one shared p-processor machine under a global memory cap, with
// cross-tree memory booking and the selected admission policy; it prints
// per-job latency/stretch and the run summary.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"treesched/internal/exact"
	"treesched/internal/forest"
	"treesched/internal/machine"
	"treesched/internal/obs"
	"treesched/internal/portfolio"
	"treesched/internal/sched"
	"treesched/internal/traversal"
	"treesched/internal/tree"
)

func main() {
	var (
		in        = flag.String("in", "", "input tree file (treegen format); required")
		p         = flag.Int("p", 2, "number of processors")
		machSpec  = flag.String("machine", "", `machine spec ("4" or "2x1.0+2x0.5" for heterogeneous speeds); overrides -p`)
		name      = flag.String("heuristic", "all", "heuristic name, 'all', or 'Exact' for the branch-and-bound solver (small trees)")
		memcap    = flag.Float64("memcap", 0, "if > 0, also run the memory-capped schedulers with cap = memcap × M_seq (with -heuristic Exact: the solver's cap; 0 = no cap)")
		budget    = flag.String("budget", "", `exact-solver node budget, e.g. "500k" or "2M" (only with -heuristic Exact; empty = default)`)
		gantt     = flag.Bool("gantt", false, "print an ASCII Gantt chart per heuristic (small trees)")
		runPort   = flag.Bool("portfolio", false, "race the paper's four heuristics + Sequential concurrently; print the Pareto frontier and the -objective winner")
		objective = flag.String("objective", "", "portfolio selection objective (min_makespan, min_memory, makespan_under_memcap:F, memory_under_deadline:D, weighted:A); implies -portfolio")
		doTrace   = flag.Bool("trace", false, "record stage spans (schedule, evaluate, per candidate) and print the span tree after the results")
		timeline  = flag.String("timeline", "", "write the executed schedule as Chrome Trace Event Format JSON to this file (open in ui.perfetto.dev); in portfolio mode the winner's schedule, in forest mode one track per job")

		forestIn  = flag.String("forest", "", "NDJSON forest trace to simulate on the shared machine (see treegen -forest)")
		policy    = flag.String("policy", "fifo", "forest admission policy: fifo|sjf|smallest_mseq|weighted_fair")
		mem       = flag.Int64("mem", 0, "forest absolute global memory cap (0: use -capfactor)")
		capFactor = flag.Float64("capfactor", 2, "forest memory cap as a multiple of the trace's largest M_seq (when -mem is 0)")
	)
	flag.Parse()
	var mach *machine.Model
	if *machSpec != "" {
		var err error
		mach, err = machine.ParseSpec(*machSpec)
		if err != nil {
			fatal(err)
		}
		*p = mach.P()
	} else {
		if *p < 1 {
			fatal(fmt.Errorf("p must be >= 1, got %d", *p))
		}
		mach = machine.Uniform(*p)
	}
	if *forestIn != "" {
		runForest(*forestIn, mach, *policy, *mem, *capFactor, *timeline)
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "treesched: one of -in and -forest is required")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	t, err := tree.Decode(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	msLB := sched.MakespanLowerBoundOn(t, mach)
	pc := sched.NewPrecompute(t)
	memLB := pc.MSeq()
	opt := traversal.Optimal(t)
	fmt.Printf("tree: %d nodes, %d leaves, height %d, max degree %d\n",
		t.Len(), t.NumLeaves(), t.Height(), t.MaxDegree())
	fmt.Printf("machine %s (p=%d)  makespan LB %.6g  sequential postorder memory %d  optimal sequential memory %d\n\n",
		mach.Spec(), *p, msLB, memLB, opt.Peak)

	var tr *obs.Trace
	if *doTrace {
		tr = obs.AcquireTrace()
		defer tr.Release()
	}
	if *runPort || *objective != "" {
		runPortfolio(pc, mach, *objective, *memcap, tr, *timeline)
		return
	}
	if *name == sched.IDExact.String() {
		runExact(t, mach, *memcap, *budget, msLB, memLB, tr, *timeline)
		return
	}

	ids := sched.PaperHeuristics()
	if *name != "all" {
		h, ok := sched.ByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown heuristic %q (known: %s; MemCapped/MemCappedBooking need -memcap, Auto needs -portfolio)",
				*name, strings.Join(sched.HeuristicNames(), ", ")))
		}
		ids = []sched.HeuristicID{h.ID}
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "heuristic\tmakespan\tms/LB\tmemory\tmem/Mseq\tutilization")
	var charts []string
	for i, id := range ids {
		name := id.String()
		cid := obs.RootSpan
		if tr != nil {
			cid = tr.Start("candidate:"+name, obs.RootSpan)
		}
		sid := tr.Start("schedule", cid)
		s, err := pc.Run(id, mach, 0)
		tr.End(sid)
		if err != nil {
			fatal(err)
		}
		eid := tr.Start("evaluate", cid)
		if err := s.Validate(t); err != nil {
			fatal(fmt.Errorf("%s produced an invalid schedule: %w", name, err))
		}
		report(w, name, t, s, msLB, memLB)
		tr.End(eid)
		tr.End(cid)
		if *gantt {
			charts = append(charts, name+"\n"+sched.GanttString(t, s, 100))
		}
		// The first heuristic's schedule is the one -timeline renders
		// (with -heuristic <name> that is the selected heuristic).
		if *timeline != "" && i == 0 {
			writeTimeline(*timeline, t, s, name, memCapOf(id, *memcap, memLB))
		}
	}
	if *memcap > 0 {
		cap := sched.CapFromFactor(*memcap, memLB)
		for _, id := range []sched.HeuristicID{sched.IDMemCapped, sched.IDMemCappedBooking} {
			s, err := pc.Run(id, mach, cap)
			if err != nil {
				fatal(err)
			}
			report(w, fmt.Sprintf("%s(%.2g×)", id, *memcap), t, s, msLB, memLB)
		}
	}
	w.Flush()
	for _, c := range charts {
		fmt.Println("\n" + c)
	}
	printTrace(tr)
}

// memCapOf resolves the memory-counter cap series of a timeline of
// heuristic id: the cap id ran under (sched.CapFromFactor of the -memcap
// factor) when it runs capped (sched.HeuristicID.Capped), else 0, no cap
// series.
func memCapOf(id sched.HeuristicID, factor float64, memSeq int64) int64 {
	if factor <= 0 || !id.Capped() {
		return 0
	}
	return sched.CapFromFactor(factor, memSeq)
}

// writeTimeline renders one schedule as Chrome Trace Event Format JSON at
// path — the -timeline output, loadable in ui.perfetto.dev or
// chrome://tracing.
func writeTimeline(path string, t *tree.Tree, s *sched.Schedule, name string, memCap int64) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	err = sched.WriteChromeTrace(f, t, s, sched.ChromeTraceOptions{Name: name, MemCap: memCap})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "treesched: timeline (%s) written to %s — open in ui.perfetto.dev\n", name, path)
}

// printTrace prints the recorded span tree, indented by depth, with per-
// span duration and the span value (the exact solver's explored-node
// count) when one was recorded. No-op without -trace.
func printTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	root := tr.Tree()
	if root == nil {
		return
	}
	fmt.Println("\ntrace:")
	root.Walk(func(n *obs.SpanNode, depth int) {
		fmt.Printf("%s%s %.1fµs", strings.Repeat("  ", depth+1), n.Name, n.DurUS)
		if n.Value != 0 {
			fmt.Printf(" (value %d)", n.Value)
		}
		fmt.Println()
	})
}

// runExact runs the branch-and-bound solver: proven-optimal makespan
// under the -memcap cap (a factor of M_seq; 0 = no cap) within the
// -budget node budget, or the best schedule found when the budget runs
// out first.
func runExact(t *tree.Tree, mach *machine.Model, memcap float64, budgetSpec string, msLB float64, memLB int64, tr *obs.Trace, timeline string) {
	nodes := exact.DefaultNodeBudget
	if budgetSpec != "" {
		var err error
		nodes, err = exact.ParseBudget(budgetSpec)
		if err != nil {
			fatal(err)
		}
	}
	memCap := sched.CapFromFactor(memcap, memLB)
	sid := tr.Start("solve", obs.RootSpan)
	res, err := exact.Solve(t, mach, memCap, nodes)
	tr.End(sid)
	if err != nil {
		fatal(err)
	}
	tr.SetValue(sid, res.Explored)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "heuristic\tmakespan\tms/LB\tmemory\tmem/Mseq\tutilization")
	report(w, "Exact", t, res.Schedule, msLB, memLB)
	w.Flush()
	if timeline != "" {
		writeTimeline(timeline, t, res.Schedule, "Exact", memCapOf(sched.IDExact, memcap, memLB))
	}
	if res.Proven {
		fmt.Printf("\nexact: proven optimal (explored %d nodes, pruned %d, memo hits %d, lower bound %.6g)\n",
			res.Explored, res.Pruned, res.MemoHits, res.LowerBound)
	} else {
		fmt.Printf("\nexact: node budget %d exhausted — best schedule found, NOT proven optimal (explored %d, pruned %d, memo hits %d, lower bound %.6g)\n",
			nodes, res.Explored, res.Pruned, res.MemoHits, res.LowerBound)
	}
	printTrace(tr)
}

// runPortfolio races the default candidate set (plus the memory-capped
// schedulers when -memcap is given) and reports every candidate with its
// frontier membership and the objective-selected winner.
func runPortfolio(pc *sched.Precompute, mach *machine.Model, objSpec string, memcap float64, tr *obs.Trace, timeline string) {
	obj := portfolio.MinMakespan()
	if objSpec != "" {
		var err error
		obj, err = portfolio.ParseObjective(objSpec)
		if err != nil {
			fatal(err)
		}
	}
	opts := portfolio.Options{Options: sched.Options{Machine: mach},
		Trace: tr, TraceParent: obs.RootSpan}
	if memcap > 0 {
		opts.Heuristics = append(portfolio.DefaultCandidates(), sched.IDMemCapped, sched.IDMemCappedBooking)
		opts.MemCapFactor = memcap
	}
	res, err := portfolio.RunPre(context.Background(), pc, obj, opts)
	if err != nil {
		fatal(err)
	}
	var sum float64
	for _, c := range res.Candidates {
		sum += c.Elapsed.Seconds()
	}
	fmt.Printf("portfolio: %d candidates raced in %v (sum of candidate times %.3gs), objective %s\n\n",
		len(res.Candidates), res.Elapsed, sum, res.Objective)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "heuristic\tmakespan\tms/LB\tmemory\tmem/Mseq\telapsed\t")
	for i, c := range res.Candidates {
		if c.Err != nil {
			fmt.Fprintf(w, "%s\terror: %v\t\t\t\t\t\n", c.ID, c.Err)
			continue
		}
		mark := ""
		if res.OnFrontier(i) {
			mark = "pareto"
		}
		if i == res.Winner {
			mark += " winner"
		}
		fmt.Fprintf(w, "%s\t%.6g\t%.3f\t%d\t%.3f\t%v\t%s\n",
			c.ID, c.Makespan, c.MakespanRatio, c.PeakMemory, c.MemoryRatio, c.Elapsed, mark)
	}
	w.Flush()
	if win, ok := res.WinnerCandidate(); ok {
		fmt.Printf("\nwinner under %s: %s (makespan %.6g, memory %d)\n",
			res.Objective, win.ID, win.Makespan, win.PeakMemory)
		if timeline != "" {
			writeTimeline(timeline, pc.Tree(), win.Schedule, win.ID.String(), memCapOf(win.ID, memcap, res.MemorySeq))
		}
	} else {
		fmt.Println("\nno winner: every candidate failed")
	}
	printTrace(tr)
}

// runForest simulates an NDJSON job trace on one shared machine and
// prints per-job results plus the run summary.
func runForest(path string, mach *machine.Model, policyName string, mem int64, capFactor float64, timeline string) {
	pol, err := forest.ParsePolicy(policyName)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	jobs, err := forest.DecodeTrace(f, forest.DecodeLimits{})
	f.Close()
	if err != nil {
		fatal(err)
	}
	res, err := forest.Run(context.Background(), jobs, forest.Config{
		Machine:      mach,
		MemCap:       mem,
		MemCapFactor: capFactor,
		Policy:       pol,
		Timeline:     timeline != "",
	})
	if err != nil {
		fatal(err)
	}
	if timeline != "" {
		f, err := os.Create(timeline)
		if err != nil {
			fatal(err)
		}
		err = res.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "treesched: forest timeline (%d jobs) written to %s — open in ui.perfetto.dev\n",
			len(res.Timeline.JobIDs), timeline)
	}
	s := res.Summary
	fmt.Printf("forest: %d jobs on machine %s (p=%d), policy %s, memory cap %d\n",
		s.Jobs, mach.Spec(), s.Processors, s.Policy, s.MemCap)
	fmt.Printf("completed %d  rejected %d  makespan %.6g  utilization %.3f  peak resident %d (%.1f%% of cap)\n",
		s.Completed, s.Rejected, s.Makespan, s.Utilization, s.PeakResident, 100*float64(s.PeakResident)/float64(s.MemCap))
	fmt.Printf("latency mean %.6g p50 %.6g p99 %.6g  |  stretch mean %.3f max %.3f  |  wait mean %.6g\n",
		s.MeanLatency, s.P50Latency, s.P99Latency, s.MeanStretch, s.MaxStretch, s.MeanWait)
	fmt.Printf("tasks executed %d  max queued %d  max running %d\n\n", s.TasksExecuted, s.MaxQueued, s.MaxRunning)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "job\tstatus\tnodes\tplanned_by\tarrival\tstart\tfinish\twait\tlatency\tstretch")
	for _, jr := range res.Jobs {
		if jr.Status != forest.StatusCompleted {
			fmt.Fprintf(w, "%s\t%s: %s\t%d\t\t%.6g\t\t\t\t\t\n", jr.ID, jr.Status, jr.Reason, jr.Nodes, jr.Arrival)
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.3f\n",
			jr.ID, jr.Status, jr.Nodes, jr.PlannedBy, jr.Arrival, jr.Start, jr.Finish, jr.Wait, jr.Latency, jr.Stretch)
	}
	w.Flush()
}

func report(w *tabwriter.Writer, name string, t *tree.Tree, s *sched.Schedule, msLB float64, memLB int64) {
	ms := s.Makespan(t)
	mem := sched.PeakMemory(t, s)
	fmt.Fprintf(w, "%s\t%.6g\t%.3f\t%d\t%.3f\t%.2f\n",
		name, ms, ms/msLB, mem, float64(mem)/float64(memLB), sched.Utilization(t, s))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "treesched:", err)
	os.Exit(1)
}
