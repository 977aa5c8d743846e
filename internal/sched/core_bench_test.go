package sched

import (
	"testing"

	"treesched/internal/machine"
	"treesched/internal/traversal"
)

// Core micro-benchmarks with allocation reporting; `go test -bench Core
// -benchmem ./internal/sched` is the in-repo view of what `treebench
// -suite core` gates in CI.

func benchTreeAndPC(b *testing.B) (*Precompute, int) {
	b.Helper()
	tr := allocTree(42, 10_000)
	pc := NewPrecompute(tr)
	b.ReportAllocs()
	b.ResetTimer()
	return pc, 8
}

func BenchmarkCoreParInnerFirst(b *testing.B) {
	pc, p := benchTreeAndPC(b)
	for i := 0; i < b.N; i++ {
		if _, err := pc.Run(IDParInnerFirst, machine.Uniform(p), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreParDeepestFirst(b *testing.B) {
	pc, p := benchTreeAndPC(b)
	for i := 0; i < b.N; i++ {
		if _, err := pc.Run(IDParDeepestFirst, machine.Uniform(p), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreParSubtrees(b *testing.B) {
	pc, p := benchTreeAndPC(b)
	for i := 0; i < b.N; i++ {
		if _, err := pc.Run(IDParSubtrees, machine.Uniform(p), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreParSubtreesOptim(b *testing.B) {
	pc, p := benchTreeAndPC(b)
	for i := 0; i < b.N; i++ {
		if _, err := pc.Run(IDParSubtreesOptim, machine.Uniform(p), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreParSubtreesPair runs both ParSubtrees variants through one
// selection, as a portfolio race of the paper's four heuristics does.
func BenchmarkCoreParSubtreesPair(b *testing.B) {
	pc, p := benchTreeAndPC(b)
	opts := Options{Processors: p, Heuristics: []HeuristicID{IDParSubtrees, IDParSubtreesOptim}}
	for i := 0; i < b.N; i++ {
		hs, _, err := opts.SelectPre(pc)
		if err != nil {
			b.Fatal(err)
		}
		for _, h := range hs {
			if _, err := h.Run(pc.Tree(), p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCoreMemCappedBooking(b *testing.B) {
	pc, p := benchTreeAndPC(b)
	cap := 2 * pc.MSeq()
	for i := 0; i < b.N; i++ {
		if _, err := pc.Run(IDMemCappedBooking, machine.Uniform(p), cap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreBestPostOrder(b *testing.B) {
	tr := allocTree(42, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traversal.BestPostOrder(tr)
	}
}

func BenchmarkCoreOptimalTraversal(b *testing.B) {
	tr := allocTree(42, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traversal.Optimal(tr)
	}
}

func BenchmarkCorePrecompute(b *testing.B) {
	tr := allocTree(42, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPrecompute(tr)
	}
}

func BenchmarkCorePeakMemoryReplay(b *testing.B) {
	pc, p := benchTreeAndPC(b)
	s, err := pc.Run(IDParInnerFirst, machine.Uniform(p), 0)
	if err != nil {
		b.Fatal(err)
	}
	s.Invalidate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PeakMemory(pc.Tree(), s)
	}
}

func BenchmarkCoreEvaluate(b *testing.B) {
	pc, p := benchTreeAndPC(b)
	s, err := pc.Run(IDParInnerFirst, machine.Uniform(p), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Evaluate(pc.Tree(), s); err != nil {
			b.Fatal(err)
		}
	}
}
