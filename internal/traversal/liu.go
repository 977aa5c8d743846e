package traversal

import (
	"math"
	"slices"
	"sync"

	"treesched/internal/tree"
)

// lseg is one hill–valley segment of a traversal's memory profile,
// relative to the memory level at the segment's start:
//
//	P = rise to the segment's internal peak (hill - start), P >= 0
//	D = net rise over the segment (valley - start), 0 <= D <= P for atomic
//	    segments of a valley decomposition (the final segment of a subtree
//	    may be produced with D < 0 before re-decomposition).
//
// rope references the segment's node list in the traversal's ropeArena, so
// concatenation is O(1) instead of copying chunk headers.
type lseg struct {
	P, D int64
	rope int32
}

// prio is the sort key of Liu's merge: segments are emitted in
// non-increasing P-D.
func (s lseg) prio() int64 { return s.P - s.D }

// lgroup is a run of consecutive atomic segments of one child that must be
// emitted as a unit to keep priorities non-increasing within the child. It
// references its atoms as the contiguous range [lo, hi) of the per-node
// flat atoms buffer — groups only ever merge with their neighbours, so the
// range stays contiguous and no atom is ever copied during grouping.
type lgroup struct {
	p, d   int64
	lo, hi int32
}

func (g lgroup) prio() int64 { return g.p - g.d }

// liuScratch is the pooled working set of one Optimal call.
type liuScratch struct {
	arena ropeArena
	// stack holds the valley decompositions of the subtrees done so far,
	// one block per subtree, from off[v] on for subtree v. TopOrder is a
	// postorder, so a node's children's blocks are the top of the stack
	// when its turn comes, and its own block replaces them.
	stack  []lseg
	off    []int32
	atoms  []lseg // per-node flat buffer of the children's segments
	groups []lgroup
	merged []lseg
	valley []int64
	cut    []bool
	rstack []int32 // rope emission stack
}

var liuPool = sync.Pool{New: func() any { return new(liuScratch) }}

func (sc *liuScratch) reset(n int) {
	sc.arena.reset()
	sc.stack = sc.stack[:0]
	if cap(sc.off) < n {
		sc.off = make([]int32, n)
	}
	sc.off = sc.off[:n]
}

// concatSeg merges b after a into a single segment (O(1) via the arena).
func concatSeg(a, b lseg, ar *ropeArena) lseg {
	p := a.P
	if q := a.D + b.P; q > p {
		p = q
	}
	return lseg{P: p, D: a.D + b.D, rope: ar.concat(a.rope, b.rope)}
}

// Optimal computes a peak-memory-optimal sequential traversal using Liu's
// generalized pebbling algorithm (Liu 1987): the optimal traversal of a
// subtree is an interleaving of the children's optimal traversals followed
// by the root, obtained by decomposing each child traversal into hill–valley
// segments and emitting segments in non-increasing (hill - valley). Runs of
// segments whose priorities would increase within a child are grouped first
// (the combined segment dominates). Worst-case O(n²), typically much less.
// All working memory — segment lists, grouping buffers, the rope arena of
// node lists — is pooled and recycled across calls.
func Optimal(t *tree.Tree) Result {
	n := t.Len()
	if n == 0 {
		return Result{}
	}
	sc := liuPool.Get().(*liuScratch)
	sc.reset(n)
	for _, v := range t.TopOrder() {
		cs := t.Children(v)
		// The node's own step: memory rises by n_v+f_v above the level where
		// all children outputs are resident, then settles to f_v.
		own := lseg{P: t.N(v) + t.F(v), D: t.F(v) - t.InSize(v), rope: leafRef(v)}
		lo := int32(len(sc.stack))
		sc.merged = sc.merged[:0]
		if len(cs) > 0 {
			// Group each child's segments into the flat atoms buffer, then
			// sort the groups by non-increasing priority (ascending lo
			// breaks ties, which is exactly the old stable sort: lo
			// increases in append order).
			lo = sc.off[cs[0]]
			sc.atoms = sc.atoms[:0]
			sc.groups = sc.groups[:0]
			for i, c := range cs {
				hi := int32(len(sc.stack))
				if i+1 < len(cs) {
					hi = sc.off[cs[i+1]]
				}
				sc.appendGroups(sc.stack[sc.off[c]:hi])
			}
			slices.SortFunc(sc.groups, func(a, b lgroup) int {
				if pa, pb := a.prio(), b.prio(); pa != pb {
					if pa > pb {
						return -1
					}
					return 1
				}
				return int(a.lo) - int(b.lo)
			})
			for _, g := range sc.groups {
				sc.merged = append(sc.merged, sc.atoms[g.lo:g.hi]...)
			}
		}
		sc.merged = append(sc.merged, own)
		sc.off[v] = lo
		sc.stack = sc.redecompose(sc.merged, sc.stack[:lo])
	}
	order := make([]int, 0, n)
	var base, peak int64
	for _, s := range sc.stack { // the root's block: the whole stack
		if q := base + s.P; q > peak {
			peak = q
		}
		base += s.D
		order, sc.rstack = sc.arena.appendNodes(s.rope, sc.rstack, order)
	}
	liuPool.Put(sc)
	return Result{Order: order, Peak: peak}
}

// appendGroups appends one child's atomic segments to the atoms buffer and
// their grouping to the groups buffer. Within a child the emitted groups
// have non-increasing priority: whenever a later segment has strictly
// higher priority than the group before it, the two are merged (emitting
// the pair as a unit is never worse — the standard chain-coarsening
// argument). Merged groups are adjacent, so every group stays a contiguous
// [lo, hi) range of atoms.
func (sc *liuScratch) appendGroups(atoms []lseg) {
	start := len(sc.groups)
	for _, s := range atoms {
		i := int32(len(sc.atoms))
		sc.atoms = append(sc.atoms, s)
		sc.groups = append(sc.groups, lgroup{p: s.P, d: s.D, lo: i, hi: i + 1})
		for len(sc.groups)-start >= 2 {
			a, b := sc.groups[len(sc.groups)-2], sc.groups[len(sc.groups)-1]
			if b.prio() <= a.prio() {
				break
			}
			p := a.p
			if q := a.d + b.p; q > p {
				p = q
			}
			sc.groups = sc.groups[:len(sc.groups)-2]
			sc.groups = append(sc.groups, lgroup{p: p, d: a.d + b.d, lo: a.lo, hi: b.hi})
		}
	}
}

// redecompose cuts a concatenation of segments at the successive minima of
// its valley profile, producing atomic segments with strictly increasing
// absolute valleys (hence D >= 0 everywhere). Valleys inside input segments
// never need to be cut: within an atomic segment all interior levels are at
// least the end level, and the inputs are atomic or end the profile. The
// result is appended to out; in is not retained.
func (sc *liuScratch) redecompose(in []lseg, out []lseg) []lseg {
	m := len(in)
	if cap(sc.valley) < m {
		sc.valley = make([]int64, m)
		sc.cut = make([]bool, m)
	}
	valley := sc.valley[:m]
	cut := sc.cut[:m]
	// Absolute valley after each input segment.
	var base int64
	for i, s := range in {
		base += s.D
		valley[i] = base
	}
	// Cut after segment i-1 iff its valley is strictly below everything
	// that follows (the last occurrence of the running minimum). The
	// running minimum starts at MaxInt64 — not 1<<62, which legal valleys
	// near 2⁶² could undershoot.
	runMin := int64(math.MaxInt64)
	for i := m - 1; i >= 1; i-- {
		if valley[i] < runMin {
			runMin = valley[i]
		}
		cut[i] = valley[i-1] < runMin
	}
	cur := in[0]
	for i := 1; i < m; i++ {
		if cut[i] {
			out = append(out, cur)
			cur = in[i]
		} else {
			cur = concatSeg(cur, in[i], &sc.arena)
		}
	}
	return append(out, cur)
}
