package treesched_test

// One benchmark per paper artifact (see DESIGN.md §5):
//
//	BenchmarkTable1        E1: the full heuristic comparison
//	BenchmarkFig6/7/8      E2-E4: the normalized point clouds and crosses
//	BenchmarkFig1Gadget    E5: Theorem 1 yes-instance schedule
//	BenchmarkFig2Inapprox  E6: Theorem 2 optimal memory n+δ
//	BenchmarkFig3Fork      E7: ParSubtrees makespan worst case
//	BenchmarkFig4JoinChain E8: ParInnerFirst memory worst case
//	BenchmarkFig5Spider    E9: ParDeepestFirst memory worst case
//	BenchmarkAblationLeafOrder  E12
//	BenchmarkMemCap        E13
//
// plus micro-benchmarks of the core algorithms. Benchmarks report the
// reproduced quantities via b.ReportMetric, so `go test -bench .` doubles
// as the reproduction harness at quick scale (cmd/experiments runs the
// full scale).

import (
	"math/rand"
	"sync"
	"testing"

	"treesched"
	"treesched/internal/dataset"
	"treesched/internal/pebble"
	"treesched/internal/report"
	"treesched/internal/sched"
	"treesched/internal/traversal"
	"treesched/internal/tree"
)

var (
	scenarioOnce sync.Once
	scenarioData []report.Scenario
)

// scenarios builds the quick-scale evaluation once and caches it.
func scenarios(b *testing.B) []report.Scenario {
	b.Helper()
	scenarioOnce.Do(func() {
		insts, err := dataset.Collection(dataset.Quick, 42)
		if err != nil {
			panic(err)
		}
		scenarioData, err = report.Run(insts, dataset.ProcessorCounts)
		if err != nil {
			panic(err)
		}
	})
	return scenarioData
}

// BenchmarkTable1 regenerates Table 1 (E1) and reports its headline
// numbers: the share of scenarios where ParSubtrees has the best memory and
// where ParDeepestFirst has the best makespan.
func BenchmarkTable1(b *testing.B) {
	insts, err := dataset.Collection(dataset.Quick, 42)
	if err != nil {
		b.Fatal(err)
	}
	var rows []report.Table1Row
	for i := 0; i < b.N; i++ {
		scs, err := report.Run(insts, dataset.ProcessorCounts)
		if err != nil {
			b.Fatal(err)
		}
		rows = report.Table1(scs)
	}
	for _, r := range rows {
		switch r.Heuristic {
		case "ParSubtrees":
			b.ReportMetric(r.BestMem, "ParSubtrees-best-mem-%")
			b.ReportMetric(r.AvgDevBestMs, "ParSubtrees-ms-dev-%")
		case "ParDeepestFirst":
			b.ReportMetric(r.BestMs, "ParDeepestFirst-best-ms-%")
			b.ReportMetric(r.AvgDevSeqMem, "ParDeepestFirst-mem-dev-%")
		}
	}
}

// BenchmarkFig6 regenerates the lower-bound comparison (E2) and reports the
// mean normalized makespan and memory of the two extreme heuristics.
func BenchmarkFig6(b *testing.B) {
	scs := scenarios(b)
	var crosses map[string]struct{ X, Y float64 }
	for i := 0; i < b.N; i++ {
		cr := report.Crosses(report.Fig6(scs))
		crosses = map[string]struct{ X, Y float64 }{}
		for k, c := range cr {
			crosses[k] = struct{ X, Y float64 }{c.XMean, c.YMean}
		}
	}
	b.ReportMetric(crosses["ParSubtrees"].X, "ParSubtrees-ms/LB")
	b.ReportMetric(crosses["ParSubtrees"].Y, "ParSubtrees-mem/Mseq")
	b.ReportMetric(crosses["ParDeepestFirst"].X, "ParDeepestFirst-ms/LB")
	b.ReportMetric(crosses["ParDeepestFirst"].Y, "ParDeepestFirst-mem/Mseq")
}

// BenchmarkFig7 regenerates the ParSubtrees-relative comparison (E3).
func BenchmarkFig7(b *testing.B) {
	scs := scenarios(b)
	var pts []report.FigPoint
	for i := 0; i < b.N; i++ {
		pts = report.Fig7(scs)
	}
	cr := report.Crosses(pts)
	b.ReportMetric(cr["ParDeepestFirst"].XMean, "ParDeepestFirst-ms-ratio")
	b.ReportMetric(cr["ParDeepestFirst"].YMean, "ParDeepestFirst-mem-ratio")
}

// BenchmarkFig8 regenerates the ParInnerFirst-relative comparison (E4).
func BenchmarkFig8(b *testing.B) {
	scs := scenarios(b)
	var pts []report.FigPoint
	for i := 0; i < b.N; i++ {
		pts = report.Fig8(scs)
	}
	cr := report.Crosses(pts)
	b.ReportMetric(cr["ParSubtrees"].XMean, "ParSubtrees-ms-ratio")
	b.ReportMetric(cr["ParSubtrees"].YMean, "ParSubtrees-mem-ratio")
}

// BenchmarkFig1Gadget builds the Theorem 1 gadget and verifies its schedule
// meets both decision bounds (E5).
func BenchmarkFig1Gadget(b *testing.B) {
	a := []int{5, 5, 6, 5, 5, 6, 5, 5, 6} // m=3, B=16; a_i ∈ (B/4, B/2)
	part := pebble.SolveThreePartition(a, 16)
	if part == nil {
		b.Fatal("no partition")
	}
	var memRatio float64
	for i := 0; i < b.N; i++ {
		tp, err := pebble.NewThreePartition(a, 16)
		if err != nil {
			b.Fatal(err)
		}
		s, err := tp.YesSchedule(part)
		if err != nil {
			b.Fatal(err)
		}
		memRatio = float64(sched.PeakMemory(tp.Tree, s)) / float64(tp.MemoryBound)
		if s.Makespan(tp.Tree) > tp.MakespanBound {
			b.Fatal("makespan bound violated")
		}
	}
	b.ReportMetric(memRatio, "mem/bound")
}

// BenchmarkFig2Inapprox builds the Theorem 2 gadget and verifies Liu's
// algorithm reaches the proven optimal memory n+δ (E6).
func BenchmarkFig2Inapprox(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		g, err := pebble.NewInapprox(4, 12)
		if err != nil {
			b.Fatal(err)
		}
		opt := traversal.Optimal(g.Tree)
		ratio = float64(opt.Peak) / float64(g.OptimalPeakMemory())
	}
	b.ReportMetric(ratio, "mem/optimal")
}

// BenchmarkFig3Fork measures the ParSubtrees worst-case makespan ratio on
// the fork tree (E7): it approaches p.
func BenchmarkFig3Fork(b *testing.B) {
	const p, k = 8, 50
	t := pebble.ForkTree(p, k)
	var ratio float64
	for i := 0; i < b.N; i++ {
		s, err := treesched.ParSubtrees(t, p)
		if err != nil {
			b.Fatal(err)
		}
		ratio = s.Makespan(t) / float64(k+1)
	}
	b.ReportMetric(ratio, "ms/optimal")
}

// BenchmarkFig4JoinChain measures ParInnerFirst's memory ratio on the
// join-chain tree (E8): it grows linearly in k while M_seq stays p+1.
func BenchmarkFig4JoinChain(b *testing.B) {
	const p, k = 4, 100
	t := pebble.JoinChainTree(p, k)
	var ratio float64
	for i := 0; i < b.N; i++ {
		s, err := treesched.ParInnerFirst(t, p)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(sched.PeakMemory(t, s)) / float64(p+1)
	}
	b.ReportMetric(ratio, "mem/Mseq")
}

// BenchmarkFig5Spider measures ParDeepestFirst's memory ratio on the spider
// tree (E9): roughly one file per chain against M_seq = 3.
func BenchmarkFig5Spider(b *testing.B) {
	const chains = 100
	t := pebble.SpiderTree(chains, 4)
	var ratio float64
	for i := 0; i < b.N; i++ {
		s, err := treesched.ParDeepestFirst(t, 2)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(sched.PeakMemory(t, s)) / 3
	}
	b.ReportMetric(ratio, "mem/Mseq")
}

// BenchmarkAblationLeafOrder compares ParInnerFirst's memory with the
// optimal-postorder leaf order against an arbitrary leaf order (E12).
func BenchmarkAblationLeafOrder(b *testing.B) {
	insts, err := dataset.Collection(dataset.Quick, 42)
	if err != nil {
		b.Fatal(err)
	}
	arb, _ := sched.ByName("ParInnerFirstArbitrary")
	var ratio float64
	for i := 0; i < b.N; i++ {
		var sum float64
		var cnt int
		for _, in := range insts {
			s1, err := treesched.ParInnerFirst(in.Tree, 8)
			if err != nil {
				b.Fatal(err)
			}
			s2, err := arb.Run(in.Tree, 8)
			if err != nil {
				b.Fatal(err)
			}
			sum += float64(sched.PeakMemory(in.Tree, s2)) / float64(sched.PeakMemory(in.Tree, s1))
			cnt++
		}
		ratio = sum / float64(cnt)
	}
	b.ReportMetric(ratio, "arbitrary/postorder-mem")
}

// BenchmarkMemCap sweeps the memory-capped scheduler (E13).
func BenchmarkMemCap(b *testing.B) {
	g := treesched.Grid2D(30, 30)
	t, err := treesched.AssemblyTree(g, treesched.NestedDissection(g), 4)
	if err != nil {
		b.Fatal(err)
	}
	mseq := treesched.MemoryLowerBound(t)
	lb := treesched.MakespanLowerBound(t, 8)
	for _, factor := range []int64{1, 2, 5} {
		factor := factor
		b.Run(string(rune('0'+factor))+"xMseq", func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				s, err := treesched.MemCapped(t, 8, factor*mseq)
				if err != nil {
					b.Fatal(err)
				}
				ratio = s.Makespan(t) / lb
			}
			b.ReportMetric(ratio, "ms/LB")
		})
	}
}

// BenchmarkHeuristics measures raw scheduling throughput of each heuristic
// on a realistic assembly tree.
func BenchmarkHeuristics(b *testing.B) {
	g := treesched.Grid2D(60, 60)
	t, err := treesched.AssemblyTree(g, treesched.NestedDissection(g), 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range treesched.Heuristics() {
		h := h
		b.Run(h.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.Run(t, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSplitSubtrees measures the splitting pass alone on a large tree.
func BenchmarkSplitSubtrees(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	t := tree.RandomAttachment(rng, 100000,
		tree.WeightSpec{WMin: 1, WMax: 9, NMin: 0, NMax: 9, FMin: 1, FMax: 99})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.SplitSubtrees(t, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeakMemorySimulator measures the discrete-event simulator.
func BenchmarkPeakMemorySimulator(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	t := tree.RandomAttachment(rng, 100000,
		tree.WeightSpec{WMin: 1, WMax: 9, NMin: 0, NMax: 9, FMin: 1, FMax: 99})
	s, err := treesched.ParDeepestFirst(t, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.PeakMemory(t, s)
	}
}

// BenchmarkAssemblyPipeline measures the sparse-matrix substrate end to
// end: ordering, symbolic factorization and amalgamation.
func BenchmarkAssemblyPipeline(b *testing.B) {
	g := treesched.Grid2D(60, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perm := treesched.NestedDissection(g)
		if _, err := treesched.AssemblyTree(g, perm, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrontalEngine runs the numeric multifrontal factorization (E15)
// and reports the engine-vs-model memory agreement (must be 1.0).
func BenchmarkFrontalEngine(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := treesched.Grid2D(16, 16)
	perm := treesched.NestedDissection(g)
	a := treesched.SPDMatrix(rng, g)
	f, err := treesched.NewFactorizer(g, perm, a)
	if err != nil {
		b.Fatal(err)
	}
	t, err := treesched.AssemblyTree(g, perm, 1)
	if err != nil {
		b.Fatal(err)
	}
	po := treesched.BestPostOrder(t)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.Factorize(po.Order)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(res.PeakEntries) / float64(po.Peak)
	}
	b.ReportMetric(ratio, "engine/model-mem")
}
