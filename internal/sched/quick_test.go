package sched_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"treesched/internal/sched"
	"treesched/internal/tree"
)

// quick.Check property suite over the scheduling engine.

func quickTree(seed int64, size uint8) *tree.Tree {
	r := rand.New(rand.NewSource(seed))
	n := 1 + int(size)%80
	return tree.RandomAttachment(r, n, tree.WeightSpec{WMin: 0.5, WMax: 5, NMin: 0, NMax: 5, FMin: 0, FMax: 20})
}

// TestQuickSchedulesValid: every heuristic yields a valid schedule whose
// memory is at least the sequential optimum and whose makespan is at least
// the lower bound, for arbitrary trees and processor counts.
func TestQuickSchedulesValid(t *testing.T) {
	f := func(seed int64, size uint8, pRaw uint8) bool {
		tr := quickTree(seed, size)
		p := 1 + int(pRaw)%16
		memLB := sched.MemoryLowerBound(tr)
		msLB := sched.MakespanLowerBound(tr, p)
		for _, h := range sched.Heuristics() {
			s, err := h.Run(tr, p)
			if err != nil || s.Validate(tr) != nil {
				return false
			}
			if s.Makespan(tr) < msLB-1e-6 {
				return false
			}
			if sched.PeakMemory(tr, s) < memLB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(141))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMemCapRespected: both capped schedulers respect arbitrary
// feasible caps.
func TestQuickMemCapRespected(t *testing.T) {
	f := func(seed int64, size uint8, extra uint16) bool {
		tr := quickTree(seed, size)
		mseq := sched.MemoryLowerBound(tr)
		cap := mseq + int64(extra)
		for _, id := range []sched.HeuristicID{sched.IDMemCapped, sched.IDMemCappedBooking} {
			s, err := runP(tr, id, 4, cap)
			if err != nil || s.Validate(tr) != nil {
				return false
			}
			if sched.PeakMemory(tr, s) > cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(142))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSplittingCoversTree: SplitSubtrees partitions the node set for
// arbitrary trees and p.
func TestQuickSplittingCoversTree(t *testing.T) {
	f := func(seed int64, size uint8, pRaw uint8) bool {
		tr := quickTree(seed, size)
		p := 1 + int(pRaw)%16
		sp, err := sched.SplitSubtrees(tr, p)
		if err != nil {
			return false
		}
		count := len(sp.SeqNodes)
		for _, r := range sp.SubtreeRoots {
			count += len(tr.SubtreeNodes(r))
		}
		return count == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(143))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMakespanMonotoneInMemBound: a tree's makespan lower bound never
// increases with more processors.
func TestQuickMakespanMonotoneInMemBound(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		tr := quickTree(seed, size)
		prev := sched.MakespanLowerBound(tr, 1)
		for p := 2; p <= 32; p *= 2 {
			cur := sched.MakespanLowerBound(tr, p)
			if cur > prev+1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(144))}); err != nil {
		t.Fatal(err)
	}
}
