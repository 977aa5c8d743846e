package sched

import (
	"math"
	"slices"
	"sync"

	"treesched/internal/tree"
)

// rankPerm is a ready-queue order as a dense permutation of the nodes:
// rank[v] is v's position in the order and byRank[r] the node at position
// r. Every order is total (σ-position or node id breaks the last tie), so
// the ready set holds ranks and its minimum is the next task to start.
type rankPerm struct {
	rank   []int32
	byRank []int32
}

// newRankPerm allocates a rankPerm of n positions, both sides in one
// allocation.
func newRankPerm(n int) rankPerm {
	buf := make([]int32, 2*n)
	return rankPerm{rank: buf[:n:n], byRank: buf[n:]}
}

// index fills rank from a complete byRank.
func (rk rankPerm) index() rankPerm {
	for r, v := range rk.byRank {
		rk.rank[v] = int32(r)
	}
	return rk
}

// innerFirstRanks orders nodes for ParInnerFirst: inner nodes by
// non-increasing depth, then every leaf; within one depth, and among the
// leaves, nodes keep their order in seq (σ, or the natural order when seq
// is nil). It is a counting sort on depth, O(n + height).
func innerFirstRanks(depth []int32, leaf []bool, seq []int) rankPerm {
	n := len(depth)
	var deepest int32
	for _, d := range depth {
		deepest = max(deepest, d)
	}
	// Bucket deepest-d holds the inner nodes of depth d, bucket deepest+1
	// the leaves; start[b] is the next free rank of bucket b.
	rs := getRadixScratch()
	start := resize(rs.counts, int(deepest)+2)
	clear(start)
	bucket := func(v int) int32 {
		if leaf[v] {
			return deepest + 1
		}
		return deepest - depth[v]
	}
	for v := range depth {
		start[bucket(v)]++
	}
	var sum int32
	for b, c := range start {
		start[b], sum = sum, sum+c
	}
	rk := newRankPerm(n)
	place := func(v int) {
		b := bucket(v)
		rk.byRank[start[b]] = int32(v)
		start[b]++
	}
	if seq == nil {
		for v := 0; v < n; v++ {
			place(v)
		}
	} else {
		for _, v := range seq {
			place(v)
		}
	}
	rs.counts = start
	putRadixScratch(rs)
	return rk.index()
}

// wdepthRanks orders the nodes by non-increasing w-weighted depth; on
// equal depths inner nodes go before leaves when innerFirst is set, and
// σ-position breaks the remaining ties. It is a stable sort of σ by one
// integer key. ^bits(d+0) sorts ascending exactly as d sorts descending for
// every d >= 0 (w-depths are sums of non-negative weights, never NaN), and
// adding +0 folds -0 into +0, which the comparators treat as equal. Its top
// bit is the complemented sign bit, always set, so the shift that makes
// room for the leaf bit loses nothing.
func wdepthRanks(t *tree.Tree, wdepth []float64, order []int, innerFirst bool) rankPerm {
	rs := getRadixScratch()
	keys := resize(rs.keys, len(order))
	rk := newRankPerm(len(order))
	for k, v := range order {
		key := ^math.Float64bits(wdepth[v] + 0)
		if innerFirst {
			key <<= 1
			if t.IsLeaf(v) {
				key |= 1
			}
		}
		keys[k], rk.byRank[k] = key, int32(v)
	}
	rs.sort(keys, rk.byRank)
	rs.keys = keys
	putRadixScratch(rs)
	return rk.index()
}

// radixScratch holds the working buffers of the radix sorts and the
// counting sort, recycled through radixPool; none of it outlives a call.
type radixScratch struct {
	keys, keys2 []uint64
	vals, vals2 []int32
	counts      []int32
	hist        [8][256]int32
}

var radixPool = sync.Pool{New: func() any { return new(radixScratch) }}

// insertionMax is the longest input radixScratch.sort insertion-sorts. The
// radix sort's histograms cost about 3-5 µs whatever the length; in
// go test -bench runs on w-depth keys (a shared 2-core VM), 64 keys
// insertion-sort in 1.1 µs shuffled and 3.1 µs reversed (radix 4.7 and
// 4.5 µs), while at 96 reversed keys the two are even and from 128 on the
// radix sort wins.
const insertionMax = 64

func getRadixScratch() *radixScratch   { return radixPool.Get().(*radixScratch) }
func putRadixScratch(rs *radixScratch) { radixPool.Put(rs) }

// sort stably sorts vals by ascending keys, both in place: an LSD radix
// sort over the eight key bytes. Sorted input costs one comparison per
// key (a chain's σ is sorted by w-depth), and a byte that every key shares
// needs no pass, so small or clustered keys take few. Up to insertionMax
// keys are insertion-sorted instead.
func (rs *radixScratch) sort(keys []uint64, vals []int32) {
	n := len(keys)
	if slices.IsSorted(keys) {
		return
	}
	if n <= insertionMax {
		for i := 1; i < n; i++ {
			k, v := keys[i], vals[i]
			j := i
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j], vals[j] = keys[j-1], vals[j-1]
			}
			keys[j], vals[j] = k, v
		}
		return
	}
	h := &rs.hist
	*h = [8][256]int32{}
	for _, k := range keys {
		h[0][byte(k)]++
		h[1][byte(k>>8)]++
		h[2][byte(k>>16)]++
		h[3][byte(k>>24)]++
		h[4][byte(k>>32)]++
		h[5][byte(k>>40)]++
		h[6][byte(k>>48)]++
		h[7][byte(k>>56)]++
	}
	keys2, vals2 := resize(rs.keys2, n), resize(rs.vals2, n)
	rs.keys2, rs.vals2 = keys2, vals2
	srcK, srcV, dstK, dstV := keys, vals, keys2, vals2
	for d := range h {
		shift := 8 * uint(d)
		c := &h[d]
		if c[byte(keys[0]>>shift)] == int32(n) {
			continue
		}
		var sum int32
		for b, x := range c {
			c[b], sum = sum, sum+x
		}
		for i, k := range srcK {
			b := byte(k >> shift)
			j := c[b]
			c[b]++
			dstK[j], dstV[j] = k, srcV[i]
		}
		srcK, srcV, dstK, dstV = dstK, dstV, srcK, srcV
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}
