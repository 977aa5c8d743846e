package sched

import (
	"fmt"

	"treesched/internal/machine"
	"treesched/internal/traversal"
	"treesched/internal/tree"
)

// This file keeps the earlier ParSubtrees implementation as the reference
// of the differential tests: the two-pass splitting (a rank-finding pass,
// then a replay to the best rank and a drain of the queue), the quotient
// tree built with tree.Builder and ordered by traversal.BestPostOrder, and
// the O(n·p) peak scan over the processor streams.

// refSplitSubtrees is the two-pass splitting of paper Alg. 2 with the
// Lemma 1 rank scan.
func refSplitSubtrees(t *tree.Tree, p int) Splitting {
	if t.Len() == 0 {
		return Splitting{}
	}
	W := t.SubtreeW()
	key := func(v int) splitKey { return splitKey{W: W[v], w: t.W(v), id: v} }

	// Pass 1: find the splitting rank with minimal cost.
	q := newSplitQueue(p)
	q.Push(key(t.Root()))
	var seqSum float64
	bestCost := W[t.Root()]
	bestRank := 0
	rank := 0
	for {
		head := q.Max()
		if head.W <= head.w {
			break
		}
		q.PopMax()
		seqSum += t.W(head.id)
		for _, c := range t.Children(head.id) {
			q.Push(key(c))
		}
		rank++
		cost := q.Max().W + seqSum + (q.SumAll() - q.SumTop())
		if cost < bestCost {
			bestCost = cost
			bestRank = rank
		}
	}
	q.release()

	// Pass 2: replay to the selected rank, then drain heaviest first.
	q = newSplitQueue(p)
	q.Push(key(t.Root()))
	sp := Splitting{PredictedMakespan: bestCost}
	for s := 0; s < bestRank; s++ {
		head := q.PopMax()
		sp.SeqNodes = append(sp.SeqNodes, head.id)
		for _, c := range t.Children(head.id) {
			q.Push(key(c))
		}
	}
	for q.Len() > 0 {
		sp.SubtreeRoots = append(sp.SubtreeRoots, q.PopMax().id)
	}
	q.release()
	return sp
}

// refParSubtrees is the reference ParSubtrees/ParSubtreesOptim on machine
// m, built from the reference splitting, quotient order and peak scan.
func refParSubtrees(pc *Precompute, m *machine.Model, optim bool) *Schedule {
	p := m.P()
	t := pc.t
	n := t.Len()
	s := &Schedule{Start: make([]float64, n), Proc: make([]int, n), P: p, M: hetModel(m)}
	if n == 0 {
		return s
	}
	sp := refSplitSubtrees(t, p)
	W := t.SubtreeW()
	perProc := make([][]int32, p)
	inParallel := make([]bool, n)
	parallelRoots := sp.SubtreeRoots
	if !optim && len(parallelRoots) > p {
		parallelRoots = parallelRoots[:p]
	}
	st := machine.NewState(m)
	var orderBuf []int
	for _, r := range parallelRoots {
		proc := st.PickEarliest(W[r])
		orderBuf = pc.ix.AppendSubtreeOrder(t, r, orderBuf[:0])
		at := st.BusyUntil(proc)
		for _, v := range orderBuf {
			s.Start[v] = at
			s.Proc[v] = proc
			at += m.ExecTime(t.W(v), proc)
			inParallel[v] = true
			perProc[proc] = append(perProc[proc], int32(v))
		}
		st.Occupy(proc, at)
	}
	phase1End := st.MaxBusy()
	var remaining []int
	for v := 0; v < n; v++ {
		if !inParallel[v] {
			remaining = append(remaining, v)
		}
	}
	if len(remaining) > 0 {
		seqProc := m.Fastest()
		at := phase1End
		for _, v := range refQuotientOrder(t, remaining, inParallel) {
			s.Start[v] = at
			s.Proc[v] = seqProc
			at += m.ExecTime(t.W(v), seqProc)
			perProc[seqProc] = append(perProc[seqProc], int32(v))
		}
	}
	st.Recycle()
	refSetPeakFromStreams(t, s, perProc)
	return s
}

// refSetPeakFromStreams scans all p stream heads for every event:
// smallest time first, ends before starts at equal times, then the lowest
// processor. Zero-duration tasks leave the peak uncached.
func refSetPeakFromStreams(t *tree.Tree, s *Schedule, perProc [][]int32) {
	for v := 0; v < t.Len(); v++ {
		if t.W(v) == 0 {
			return
		}
	}
	p := len(perProc)
	idx := make([]int, p)
	endPending := make([]bool, p)
	var mem, peak int64
	for {
		best := -1
		var bestAt float64
		bestEnd := false
		for q := 0; q < p; q++ {
			if idx[q] >= len(perProc[q]) {
				continue
			}
			v := int(perProc[q][idx[q]])
			at := s.Start[v]
			isEnd := endPending[q]
			if isEnd {
				at += s.Dur(t, v)
			}
			if best < 0 || at < bestAt || (at == bestAt && isEnd && !bestEnd) {
				best, bestAt, bestEnd = q, at, isEnd
			}
		}
		if best < 0 {
			break
		}
		v := int(perProc[best][idx[best]])
		if bestEnd {
			mem -= t.N(v) + t.InSize(v)
			idx[best]++
			endPending[best] = false
		} else {
			mem += t.N(v) + t.F(v)
			if mem > peak {
				peak = mem
			}
			endPending[best] = true
		}
	}
	s.setPeak(peak)
}

// refQuotientOrder builds the quotient tree of the remaining nodes, in
// which every done child is a zero-work stub leaf carrying its output
// file, and returns the remaining nodes in its best postorder.
func refQuotientOrder(t *tree.Tree, remaining []int, done []bool) []int {
	nq := len(remaining)
	toNew := make([]int, t.Len())
	for i, v := range remaining {
		toNew[v] = i
	}
	var b tree.Builder
	for _, v := range remaining {
		pa := t.Parent(v)
		np := tree.None
		if pa != tree.None {
			np = toNew[pa]
		}
		b.Add(np, t.W(v), t.N(v), t.F(v))
	}
	for _, v := range remaining {
		for _, c := range t.Children(v) {
			if done[c] {
				b.Add(toNew[v], 0, 0, t.F(c))
			}
		}
	}
	q, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("sched: quotient tree: %v", err))
	}
	res := traversal.BestPostOrder(q)
	order := make([]int, 0, nq)
	for _, v := range res.Order {
		if v < nq {
			order = append(order, remaining[v])
		}
	}
	return order
}

// refPhase2 is refQuotientOrder for the splitting's parallel roots: the
// remaining nodes are those outside every root's subtree.
func refPhase2(t *tree.Tree, roots []int) []int {
	done := make([]bool, t.Len())
	for _, r := range roots {
		for _, v := range t.SubtreeNodes(r) {
			done[v] = true
		}
	}
	var remaining []int
	for v := range done {
		if !done[v] {
			remaining = append(remaining, v)
		}
	}
	if len(remaining) == 0 {
		return nil
	}
	return refQuotientOrder(t, remaining, done)
}

// phase2Order runs appendPhase2 with roots marked done.
func phase2Order(t *tree.Tree, roots []int) []int {
	sc := getSubtreeScratch(t.Len(), 1)
	defer putSubtreeScratch(sc)
	for _, r := range roots {
		sc.done[r] = true
	}
	defer func() {
		for _, r := range roots {
			sc.done[r] = false
		}
	}()
	if sc.done[t.Root()] {
		return nil
	}
	return sc.appendPhase2(t, nil)
}
