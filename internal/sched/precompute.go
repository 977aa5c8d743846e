package sched

import (
	"sync"

	"treesched/internal/machine"
	"treesched/internal/traversal"
	"treesched/internal/tree"
)

// Precompute is the shared per-tree context of the scheduling core. Every
// scheduler in this package keys off the same handful of per-tree facts —
// the memory-optimal postorder σ and its peak M_seq, node depths, weighted
// depths, leaf flags, σ-positions, and the booking suffix maxima — and a
// Precompute computes each of them exactly once per tree, no matter how
// many heuristics, processor counts, or repeated schedules run on it.
//
// Construction (NewPrecompute) runs Liu's best-postorder DP once; every
// other field is derived lazily on first use and cached. A Precompute is
// safe for concurrent use after construction (lazy fields are guarded by
// sync.Once), which is what lets a portfolio race share one across all
// candidates. It must only ever be used with the tree it was built for.
//
// Run is the one way into every scheduler of the package: callers
// scheduling a tree more than once build one Precompute and reuse it.
type Precompute struct {
	t  *tree.Tree
	ix *traversal.PostOrderIndex

	pos []int // node -> index in σ (the best postorder)

	depthOnce sync.Once
	depth     []int32 // depth in edges from the root
	leaf      []bool

	wdepthOnce sync.Once
	wdepth     []float64 // w-weighted root distance, both endpoints inclusive

	// Per-heuristic ready-queue orders as dense rank permutations (see
	// rankPerm), each a total order: σ-position or node id breaks every
	// tie.
	innerOnce    sync.Once
	inner        rankPerm
	innerArbOnce sync.Once
	innerArb     rankPerm
	deepOnce     sync.Once
	deep         rankPerm
	bookOnce     sync.Once
	book         rankPerm

	futureOnce sync.Once
	futurePeak []int64

	subtreeWOnce sync.Once
	subtreeWs    []float64
}

// NewPrecompute runs the best-postorder DP on t and returns the shared
// scheduling context. O(n log n), a handful of long-lived allocations.
func NewPrecompute(t *tree.Tree) *Precompute {
	ix := traversal.NewPostOrderIndex(t)
	pos := make([]int, t.Len())
	for k, v := range ix.Order {
		pos[v] = k
	}
	return &Precompute{t: t, ix: ix, pos: pos}
}

// Tree returns the tree this context was built for.
func (pc *Precompute) Tree() *tree.Tree { return pc.t }

// Per-node and fixed byte costs of a fully materialized Precompute,
// including the tree it pins (a cached Precompute keeps its tree alive, so
// a byte budget must charge for both). The per-node constant sums the
// tree's parent/children/order/w/n/f storage (72 B), the postorder index
// (28 B), σ-positions (8 B), depths and leaf flags (5 B), weighted depths
// (8 B), the four rank permutations (an int32 rank and an int32 node per
// position each: 32 B), the booking suffix maxima (8 B) and subtree weights
// (8 B), rounded up to a word.
const (
	precomputePerNodeBytes = 176
	precomputeFixedBytes   = 1024
)

// SizeBytes returns a deterministic upper bound on the heap bytes this
// context retains once every lazy field is materialized, tree included.
// It is a function of the node count alone — it never touches the lazy
// fields, so it is safe to call concurrently with schedulers that are
// still faulting them in. PrecomputeCache charges admissions with it.
func (pc *Precompute) SizeBytes() int64 {
	return precomputeFixedBytes + int64(pc.t.Len())*precomputePerNodeBytes
}

// Order returns σ, the memory-optimal postorder (Liu 1986). Owned by pc;
// callers must not modify it.
func (pc *Precompute) Order() []int { return pc.ix.Order }

// MSeq returns the sequential peak memory of σ — M_seq, the paper's
// memory reference and the package's MemoryLowerBound.
func (pc *Precompute) MSeq() int64 { return pc.ix.Peak }

// Pos returns the inverse of Order: Pos()[v] is v's index in σ. Owned by
// pc; callers must not modify it.
func (pc *Precompute) Pos() []int { return pc.pos }

// FuturePeak returns, for every k, the largest memory the purely
// sequential execution of σ[k..] ever needs (suffix maxima of the step
// peaks; length n+1 with FuturePeak()[n] = 0). FuturePeak()[0] is M_seq.
// This is the booking reservation of MemCappedBooking and the forest
// engine. Owned by pc; callers must not modify it.
func (pc *Precompute) FuturePeak() []int64 {
	pc.futureOnce.Do(func() {
		t, order := pc.t, pc.ix.Order
		n := t.Len()
		fp := make([]int64, n+1)
		var m int64
		for k, v := range order {
			fp[k] = m + t.N(v) + t.F(v)
			m += t.F(v) - t.InSize(v)
		}
		for k := n - 1; k >= 0; k-- {
			if fp[k+1] > fp[k] {
				fp[k] = fp[k+1]
			}
		}
		pc.futurePeak = fp
	})
	return pc.futurePeak
}

// subtreeW caches t.SubtreeW for the splitting of both ParSubtrees
// variants.
func (pc *Precompute) subtreeW() []float64 {
	pc.subtreeWOnce.Do(func() { pc.subtreeWs = pc.t.SubtreeW() })
	return pc.subtreeWs
}

func (pc *Precompute) ensureDepths() {
	pc.depthOnce.Do(func() { pc.depth, pc.leaf = depthsAndLeaves(pc.t) })
}

func depthsAndLeaves(t *tree.Tree) ([]int32, []bool) {
	n := t.Len()
	depth := make([]int32, n)
	leaf := make([]bool, n)
	top := t.TopOrder()
	for i := n - 1; i >= 0; i-- { // parents before children
		v := top[i]
		if p := t.Parent(v); p != tree.None {
			depth[v] = depth[p] + 1
		}
		leaf[v] = t.IsLeaf(v)
	}
	return depth, leaf
}

func (pc *Precompute) ensureWDepths() {
	pc.wdepthOnce.Do(func() { pc.wdepth = pc.t.WDepths() })
}

// rankInnerFirst ranks ready nodes for ParInnerFirst: inner nodes before
// leaves; inner nodes by non-increasing depth; σ-position breaks all
// remaining ties (leaves follow σ outright).
func (pc *Precompute) rankInnerFirst() rankPerm {
	pc.innerOnce.Do(func() {
		pc.ensureDepths()
		pc.inner = innerFirstRanks(pc.depth, pc.leaf, pc.ix.Order)
	})
	return pc.inner
}

// rankInnerFirstArbitrary is rankInnerFirst with the natural (index) order
// in place of σ — the leaf-order ablation.
func (pc *Precompute) rankInnerFirstArbitrary() rankPerm {
	pc.innerArbOnce.Do(func() {
		pc.ensureDepths()
		pc.innerArb = innerFirstRanks(pc.depth, pc.leaf, nil)
	})
	return pc.innerArb
}

// rankDeepestFirst ranks ready nodes for ParDeepestFirst: non-increasing
// w-weighted depth, inner nodes before leaves, σ-position last.
func (pc *Precompute) rankDeepestFirst() rankPerm {
	pc.deepOnce.Do(func() {
		pc.ensureWDepths()
		pc.deep = wdepthRanks(pc.t, pc.wdepth, pc.ix.Order, true)
	})
	return pc.deep
}

// rankBooking ranks ready nodes for MemCappedBooking admission:
// non-increasing w-weighted depth, σ-position breaking ties.
func (pc *Precompute) rankBooking() rankPerm {
	pc.bookOnce.Do(func() {
		pc.ensureWDepths()
		pc.book = wdepthRanks(pc.t, pc.wdepth, pc.ix.Order, false)
	})
	return pc.book
}

// Run schedules pc's tree with heuristic id on machine m: the one way
// into every scheduler of this package. cap is the absolute memory cap of
// IDMemCapped and IDMemCappedBooking (see CapFromFactor) and is ignored by
// the uncapped heuristics. On a uniform model every heuristic is the
// paper's; on a heterogeneous model processor picks and execution times
// are speed-aware (the sequential baselines run on the fastest processor).
func (pc *Precompute) Run(id HeuristicID, m *machine.Model, cap int64) (*Schedule, error) {
	return pc.run(id, m, cap, nil)
}

// run is Run with the ParSubtrees splitting taken from share (nil: split
// on this call).
func (pc *Precompute) run(id HeuristicID, m *machine.Model, cap int64, share *splitShare) (*Schedule, error) {
	switch id {
	case IDParSubtrees:
		return parSubtrees(pc, m, false, share)
	case IDParSubtreesOptim:
		return parSubtrees(pc, m, true, share)
	case IDParInnerFirst:
		return listScheduleRank(pc.t, m, pc.rankInnerFirst())
	case IDParDeepestFirst:
		return listScheduleRank(pc.t, m, pc.rankDeepestFirst())
	case IDParInnerFirstArbitrary:
		return listScheduleRank(pc.t, m, pc.rankInnerFirstArbitrary())
	case IDSequential:
		return SequentialSchedule(pc.t, m, pc.Order())
	case IDOptimalSequential:
		return SequentialSchedule(pc.t, m, traversal.Optimal(pc.t).Order)
	case IDMemCapped:
		return memCapped(pc, m, cap)
	case IDMemCappedBooking:
		return memCappedBooking(pc, m, cap)
	}
	return nil, errUnrunnable(id)
}
