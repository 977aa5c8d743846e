package sched

import (
	"slices"
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
// The heuristic entry points are methods (ParInnerFirst, MemCapped, …) or
// the HeuristicID dispatcher Run. The package-level functions of the same
// names build a throwaway Precompute per call; callers scheduling a tree
// more than once should build one Precompute and reuse it.
type Precompute struct {
	t  *tree.Tree
	ix *traversal.PostOrderIndex

	pos []int // node -> index in σ (the best postorder)

	depthOnce sync.Once
	depth     []int32 // depth in edges from the root
	leaf      []bool

	wdepthOnce sync.Once
	wdepth     []float64 // w-weighted root distance, both endpoints inclusive

	// Per-heuristic priority ranks: rank[v] < rank[u] iff v precedes u
	// under the heuristic's ready-queue order. Each ranking is a total
	// order (σ-position or node id breaks every tie), so a rank array
	// captures the comparator exactly and the ready heap reduces to
	// integer comparisons.
	innerOnce    sync.Once
	innerRank    []uint64
	innerArbOnce sync.Once
	innerArbRank []uint64
	deepOnce     sync.Once
	deepRank     []uint64
	bookOnce     sync.Once
	bookRank     []uint64

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
// (8 B), the four priority-rank arrays (32 B), the booking suffix maxima
// (8 B) and subtree weights (8 B), rounded up to a word.
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

// buildRank converts a total-order comparator into its rank permutation:
// rank[v] = v's position in the sorted node sequence. cmp must be a total
// order (return 0 only for a == b) so the ranking is unique. Rank values
// only need to be order-preserving, not dense — comparators whose keys
// pack into an integer (rankInnerFirst) skip this sort entirely.
func buildRank(n int, cmp func(a, b int32) int) []uint64 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, cmp)
	rank := make([]uint64, n)
	for i, v := range idx {
		rank[v] = uint64(i)
	}
	return rank
}

// rankInnerFirst ranks ready nodes for ParInnerFirst: inner nodes before
// leaves; inner nodes by non-increasing depth; σ-position breaks all
// remaining ties (leaves follow σ outright). The whole order packs into
// one integer key per node — leaf bit, then inverted depth (inner nodes
// only), then position — so the ranking is built in O(n) with no sort.
func (pc *Precompute) rankInnerFirst() []uint64 {
	pc.innerOnce.Do(func() {
		pc.ensureDepths()
		pc.innerRank = packInnerRank(pc.depth, pc.leaf, pc.pos)
	})
	return pc.innerRank
}

// rankInnerFirstArbitrary is rankInnerFirst with the natural (index) order
// in place of σ — the leaf-order ablation.
func (pc *Precompute) rankInnerFirstArbitrary() []uint64 {
	pc.innerArbOnce.Do(func() {
		pc.ensureDepths()
		pc.innerArbRank = packInnerRank(pc.depth, pc.leaf, nil)
	})
	return pc.innerArbRank
}

// packInnerRank packs the ParInnerFirst order into per-node integer keys
// over positions pos (nil means natural node order). Depth and position
// both fit 31 bits (n < 2³¹), leaving bit 62 for the leaf flag.
func packInnerRank(depth []int32, leaf []bool, pos []int) []uint64 {
	const depthMask = uint64(1)<<31 - 1
	rank := make([]uint64, len(depth))
	for v := range rank {
		p := uint64(v)
		if pos != nil {
			p = uint64(pos[v])
		}
		if leaf[v] {
			rank[v] = 1<<62 | p // leaves after all inner nodes, by position
		} else {
			rank[v] = (depthMask-uint64(depth[v]))<<31 | p // deepest first
		}
	}
	return rank
}

// rankDeepestFirst ranks ready nodes for ParDeepestFirst: non-increasing
// w-weighted depth, inner nodes before leaves, σ-position last. The
// float64 primary key doesn't pack next to its tie-breaks, so this one
// ranking is built by sorting.
func (pc *Precompute) rankDeepestFirst() []uint64 {
	pc.deepOnce.Do(func() {
		pc.ensureDepths()
		pc.ensureWDepths()
		wdepth, leaf, pos := pc.wdepth, pc.leaf, pc.pos
		pc.deepRank = buildRank(pc.t.Len(), func(a, b int32) int {
			if wdepth[a] != wdepth[b] {
				if wdepth[a] > wdepth[b] {
					return -1
				}
				return 1
			}
			if leaf[a] != leaf[b] {
				if !leaf[a] { // inner nodes before leaves
					return -1
				}
				return 1
			}
			return pos[a] - pos[b]
		})
	})
	return pc.deepRank
}

// rankBooking ranks ready nodes for MemCappedBooking admission:
// non-increasing w-weighted depth, σ-position breaking ties.
func (pc *Precompute) rankBooking() []uint64 {
	pc.bookOnce.Do(func() {
		pc.ensureWDepths()
		wdepth, pos := pc.wdepth, pc.pos
		pc.bookRank = buildRank(pc.t.Len(), func(a, b int32) int {
			if wdepth[a] != wdepth[b] {
				if wdepth[a] > wdepth[b] {
					return -1
				}
				return 1
			}
			return pos[a] - pos[b]
		})
	})
	return pc.bookRank
}

// Run dispatches a heuristic by ID on this context's tree and the paper's
// uniform machine of p processors. memCapFactor parameterizes the capped
// heuristics (cap = factor × M_seq) and is ignored by the rest;
// sequential baselines ignore p.
func (pc *Precompute) Run(id HeuristicID, p int, memCapFactor float64) (*Schedule, error) {
	m, err := uniformChecked(p)
	if err != nil {
		return nil, err
	}
	return pc.RunOn(id, m, memCapFactor)
}

// RunOn dispatches a heuristic by ID on an explicit machine model. On a
// uniform model every heuristic is byte-identical to Run; on a
// heterogeneous model processor picks and execution times are
// speed-aware (the sequential baselines run on the fastest processor).
func (pc *Precompute) RunOn(id HeuristicID, m *machine.Model, memCapFactor float64) (*Schedule, error) {
	return pc.runOn(id, m, memCapFactor, nil)
}

// runOn is RunOn with the ParSubtrees splitting taken from share (nil:
// split on this call).
func (pc *Precompute) runOn(id HeuristicID, m *machine.Model, memCapFactor float64, share *splitShare) (*Schedule, error) {
	switch id {
	case IDParSubtrees:
		return parSubtrees(pc, m, false, share)
	case IDParSubtreesOptim:
		return parSubtrees(pc, m, true, share)
	case IDParInnerFirst:
		return pc.ParInnerFirstOn(m)
	case IDParDeepestFirst:
		return pc.ParDeepestFirstOn(m)
	case IDParInnerFirstArbitrary:
		return pc.ParInnerFirstArbitraryOn(m)
	case IDSequential:
		return SequentialScheduleOn(pc.t, m, pc.Order())
	case IDOptimalSequential:
		return SequentialScheduleOn(pc.t, m, traversal.Optimal(pc.t).Order)
	case IDMemCapped:
		return pc.MemCappedOn(m, capFromFactor(memCapFactor, pc.MSeq()))
	case IDMemCappedBooking:
		return pc.MemCappedBookingOn(m, capFromFactor(memCapFactor, pc.MSeq()))
	}
	return nil, errUnrunnable(id)
}
