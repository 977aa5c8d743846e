// Command experiments regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic tree collection, plus the repo's
// ablation and extension studies:
//
//	experiments -scale standard -out results/      # Table 1 + Figs 6-8
//	experiments -scale quick -table1               # just Table 1, fast
//	experiments -ablation                          # E12: leaf-order ablation
//	experiments -memcap                            # E13: memory-cap sweep
//	experiments -hetero                            # E18: heterogeneous machines
//	experiments -gap                               # E19: optimality-gap ledger
//
// Outputs: human-readable summaries on stdout; per-figure CSV point clouds
// and crosses under -out (if set).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"treesched/internal/dataset"
	"treesched/internal/machine"
	"treesched/internal/report"
	"treesched/internal/sched"
	"treesched/internal/stats"
)

func main() {
	var (
		scale  = flag.String("scale", "standard", "collection scale: quick|standard|full")
		seed   = flag.Int64("seed", 42, "collection seed")
		outDir = flag.String("out", "", "directory for CSV outputs (optional)")
		table1 = flag.Bool("table1", false, "run only Table 1")
		fig6   = flag.Bool("fig6", false, "run only Figure 6")
		fig7   = flag.Bool("fig7", false, "run only Figure 7")
		fig8   = flag.Bool("fig8", false, "run only Figure 8")
		ablate = flag.Bool("ablation", false, "run only the leaf-order ablation (E12)")
		memcap = flag.Bool("memcap", false, "run only the memory-cap sweep (E13)")
		hetero = flag.Bool("hetero", false, "run only the heterogeneous-machine study (E18)")
		gap    = flag.Bool("gap", false, "run only the optimality-gap ledger (E19)")
		byp    = flag.Bool("byp", false, "additionally break Table 1 down per processor count")
	)
	flag.Parse()
	all := !(*table1 || *fig6 || *fig7 || *fig8 || *ablate || *memcap || *hetero || *gap)

	sc := dataset.Standard
	switch *scale {
	case "quick":
		sc = dataset.Quick
	case "full":
		sc = dataset.Full
	case "standard":
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	insts, err := dataset.Collection(sc, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("collection: %d trees (scale=%s seed=%d)\n", len(insts), *scale, *seed)
	minN, maxN := insts[0].Tree.Len(), insts[0].Tree.Len()
	for _, in := range insts {
		if n := in.Tree.Len(); n < minN {
			minN = n
		} else if n > maxN {
			maxN = n
		}
	}
	fmt.Printf("tree sizes: %d .. %d nodes; p ∈ %v\n\n", minN, maxN, dataset.ProcessorCounts)

	var scs []report.Scenario
	needScenarios := all || *table1 || *fig6 || *fig7 || *fig8
	if needScenarios {
		scs, err = report.Run(insts, dataset.ProcessorCounts)
		if err != nil {
			fatal(err)
		}
	}

	if all || *table1 {
		fmt.Println("== Table 1: best-performance shares and average deviations ==")
		if err := report.WriteTable1(os.Stdout, report.Table1(scs)); err != nil {
			fatal(err)
		}
		fmt.Println()
		if *byp {
			fmt.Println("== Table 1 per processor count ==")
			if err := report.WriteByP(os.Stdout, report.ByP(scs)); err != nil {
				fatal(err)
			}
		}
	}
	figs := []struct {
		name string
		on   bool
		pts  func() []report.FigPoint
	}{
		{"fig6", all || *fig6, func() []report.FigPoint { return report.Fig6(scs) }},
		{"fig7", all || *fig7, func() []report.FigPoint { return report.Fig7(scs) }},
		{"fig8", all || *fig8, func() []report.FigPoint { return report.Fig8(scs) }},
	}
	refs := map[string]string{
		"fig6": "lower bounds (x: makespan/LB, y: memory/Mseq)",
		"fig7": "ParSubtrees (x: makespan ratio, y: memory ratio)",
		"fig8": "ParInnerFirst (x: makespan ratio, y: memory ratio)",
	}
	for _, f := range figs {
		if !f.on {
			continue
		}
		pts := f.pts()
		fmt.Printf("== %s: comparison to %s ==\n", f.name, refs[f.name])
		if err := report.RenderScatter(os.Stdout, pts, 68, 18); err != nil {
			fatal(err)
		}
		if err := report.WriteCrosses(os.Stdout, report.Crosses(pts)); err != nil {
			fatal(err)
		}
		fmt.Println()
		if *outDir != "" {
			if err := writeCSV(*outDir, f.name+".csv", pts); err != nil {
				fatal(err)
			}
		}
	}
	if all || *ablate {
		runAblation(insts)
		runSplitAblation(insts)
	}
	if all || *memcap {
		runMemCapSweep(insts)
	}
	if all || *hetero {
		runHetero(insts)
	}
	if all || *gap {
		runGapStudy(*seed)
	}
}

// runSplitAblation quantifies Lemma 1 (E14): the optimal splitting rank of
// SplitSubtrees against stopping at the first feasible splitting.
func runSplitAblation(insts []dataset.Instance) {
	fmt.Println("== Ablation E14: SplitSubtrees optimal rank (Lemma 1) vs naive stopping ==")
	var ratios []float64
	for _, in := range insts {
		for _, p := range []int{4, 16} {
			opt, err := sched.SplitSubtrees(in.Tree, p)
			if err != nil {
				fatal(err)
			}
			naive, err := sched.SplitSubtreesNaive(in.Tree, p)
			if err != nil {
				fatal(err)
			}
			ratios = append(ratios, naive.PredictedMakespan/opt.PredictedMakespan)
		}
	}
	fmt.Printf("makespan(naive)/makespan(optimal): mean %.3f, P90 %.3f, max %.3f\n\n",
		stats.Mean(ratios), stats.Percentile(ratios, 90), stats.Max(ratios))
}

// runAblation compares ParInnerFirst with the optimal-postorder leaf order
// against the same scheduler with an arbitrary leaf order (E12).
func runAblation(insts []dataset.Instance) {
	fmt.Println("== Ablation E12: leaf order of ParInnerFirst (postorder vs arbitrary) ==")
	var ratios []float64
	for _, in := range insts {
		pc := sched.NewPrecompute(in.Tree)
		for _, p := range []int{4, 16} {
			m := machine.Uniform(p)
			s1, err := pc.Run(sched.IDParInnerFirst, m, 0)
			if err != nil {
				fatal(err)
			}
			s2, err := pc.Run(sched.IDParInnerFirstArbitrary, m, 0)
			if err != nil {
				fatal(err)
			}
			m1 := float64(sched.PeakMemory(in.Tree, s1))
			m2 := float64(sched.PeakMemory(in.Tree, s2))
			ratios = append(ratios, m2/m1)
		}
	}
	fmt.Printf("memory(arbitrary)/memory(postorder): mean %.3f, P10 %.3f, P90 %.3f, max %.3f\n\n",
		stats.Mean(ratios), stats.Percentile(ratios, 10), stats.Percentile(ratios, 90), stats.Max(ratios))
}

// runMemCapSweep traces the memory/makespan trade-off of the two capped
// schedulers (E13) on each instance at p=8.
func runMemCapSweep(insts []dataset.Instance) {
	fmt.Println("== Extension E13: memory-capped scheduling at p=8 ==")
	fmt.Println("cap/Mseq   activation ms/LB (mean, P90)   booking ms/LB (mean, P90)")
	m := machine.Uniform(8)
	for _, factor := range []float64{1.0, 1.5, 2.0, 3.0, 5.0} {
		var act, book []float64
		for _, in := range insts {
			pc := sched.NewPrecompute(in.Tree)
			cap := sched.CapFromFactor(factor, pc.MSeq())
			lb := sched.MakespanLowerBound(in.Tree, 8)
			s, err := pc.Run(sched.IDMemCapped, m, cap)
			if err != nil {
				fatal(err)
			}
			act = append(act, s.Makespan(in.Tree)/lb)
			s, err = pc.Run(sched.IDMemCappedBooking, m, cap)
			if err != nil {
				fatal(err)
			}
			book = append(book, s.Makespan(in.Tree)/lb)
		}
		fmt.Printf("%8.1f   %14.3f  %9.3f   %13.3f  %9.3f\n", factor,
			stats.Mean(act), stats.Percentile(act, 90),
			stats.Mean(book), stats.Percentile(book, 90))
	}
	fmt.Println()
}

func writeCSV(dir, name string, pts []report.FigPoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return report.WriteCSV(f, pts)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
