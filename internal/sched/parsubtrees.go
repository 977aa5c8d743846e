package sched

import (
	"math"
	"slices"
	"sync"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// Splitting is the outcome of SplitSubtrees (paper Alg. 2): a set of
// disjoint maximal subtrees to process in parallel and the remaining nodes
// to process sequentially.
type Splitting struct {
	// SubtreeRoots holds the roots of all subtrees produced by the selected
	// splitting, heaviest first.
	SubtreeRoots []int
	// SeqNodes holds the nodes popped from the queue (the subtree merge
	// points and their ancestors), in pop order.
	SeqNodes []int
	// PredictedMakespan is C_max(s) of the selected splitting under the
	// two-phase execution model of Algorithm 1.
	PredictedMakespan float64
}

// SplitSubtrees splits t into subtrees for ParSubtrees with p processors,
// returning the splitting whose predicted two-phase makespan is minimal
// over all splitting ranks (optimal for ParSubtrees by paper Lemma 1).
// p must be at least 1, as for every scheduler.
func SplitSubtrees(t *tree.Tree, p int) (Splitting, error) {
	if _, err := uniformChecked(p); err != nil {
		return Splitting{}, err
	}
	if t.Len() == 0 {
		return Splitting{}, nil
	}
	return splitSubtreesW(t, p, t.SubtreeW()), nil
}

// splitSubtreesW is SplitSubtrees over a caller-provided subtree-weight
// array (cached in Precompute). A single pass over the splitting ranks
// finds the cheapest one and records its pops, from which the splitting at
// that rank follows without a replay: its sequential nodes are the first
// bestRank pops, and its subtrees are the root (rank 0) or else the
// children of those pops that are not pops themselves.
func splitSubtreesW(t *tree.Tree, p int, W []float64) Splitting {
	root := t.Root()
	key := func(v int) splitKey { return splitKey{W: W[v], w: t.W(v), id: v} }
	q := newSplitQueue(p)
	q.Push(key(root))
	pops := q.pops[:0]
	var seqSum float64
	bestCost := W[root] // Cost(0): the whole tree on one processor
	bestRank := 0
	// The pass stops early once no later rank can be strictly cheaper. A
	// rank costs seqSum + (heaviest queued W) + (queued W beyond the top p)
	// = W[root] - (the 2nd..p-th heaviest queued W). Later ranks only pop,
	// so seqSum never shrinks, and every later queue splits today's queued
	// subtrees: any p-1 of its subtrees lie within at most p-1 of today's,
	// so weigh at most today's p-1 heaviest. Hence no later rank costs
	// less than seqSum or than W[root] - (today's p-1 heaviest queued W).
	// Both bounds are exact only up to float rounding: of the running sums
	// (at most 6n updates, each off by at most 2⁻⁵³·W[root]) and of W
	// itself (at most 2n roundings of the same size). slack exceeds all of
	// it by a factor of 2⁸, so the early stop never changes the result.
	slack := W[root] * float64(t.Len()) * 0x1p-40
	i := q.maxIndex()
	for head := q.top[i]; head.W > head.w; head = q.top[i] { // stop once the largest subtree is a single node
		q.removeTop(i)
		pops = append(pops, head.id)
		seqSum += t.W(head.id)
		for _, c := range t.Children(head.id) {
			q.Push(key(c))
		}
		i = q.maxIndex()
		cost := q.top[i].W + seqSum + (q.SumAll() - q.SumTop())
		if cost < bestCost {
			bestCost = cost
			bestRank = len(pops)
		}
		if floor := bestCost + slack; seqSum >= floor || W[root]-q.sumTopButOne() >= floor {
			break
		}
	}
	q.pops = pops

	sp := Splitting{PredictedMakespan: bestCost}
	if bestRank == 0 {
		sp.SubtreeRoots = []int{root}
		q.release()
		return sp
	}
	seq := pops[:bestRank]
	sp.SeqNodes = slices.Clone(seq)
	mark := q.marks(t.Len())
	for _, v := range seq {
		mark[v] = true
	}
	nroots := 0
	for _, v := range seq {
		for _, c := range t.Children(v) {
			if !mark[c] {
				nroots++
			}
		}
	}
	sp.SubtreeRoots = make([]int, 0, nroots)
	for _, v := range seq {
		for _, c := range t.Children(v) {
			if !mark[c] {
				sp.SubtreeRoots = append(sp.SubtreeRoots, c)
			}
		}
	}
	for _, v := range seq {
		mark[v] = false
	}
	q.release()
	sortHeaviestFirst(sp.SubtreeRoots, t, W)
	return sp
}

// sortHeaviestFirst orders distinct subtree roots by the split queue's
// priority (splitKey.greater), the order in which the queue would pop them.
// It sorts the roots by W with radixScratch.sort (a fork's root has ~n
// children), then orders each run of equal W by the rest of the key,
// which is rarely needed: among leaves, equal W means equal w.
func sortHeaviestFirst(roots []int, t *tree.Tree, W []float64) {
	if len(roots) <= 1 {
		return
	}
	rs := getRadixScratch()
	keys, ids := resize(rs.keys, len(roots)), resize(rs.vals, len(roots))
	for i, v := range roots {
		keys[i], ids[i] = ^math.Float64bits(W[v]+0), int32(v) // as in wdepthRanks
	}
	rs.sort(keys, ids)
	for lo := 0; lo < len(ids); {
		hi := lo + 1
		for hi < len(ids) && keys[hi] == keys[lo] {
			hi++
		}
		if run := ids[lo:hi]; len(run) > 1 {
			slices.SortFunc(run, func(a, b int32) int {
				ka := splitKey{W: W[a], w: t.W(int(a)), id: int(a)}
				kb := splitKey{W: W[b], w: t.W(int(b)), id: int(b)}
				if ka.greater(kb) {
					return -1
				}
				if kb.greater(ka) {
					return 1
				}
				return 0
			})
		}
		lo = hi
	}
	for i, v := range ids {
		roots[i] = int(v)
	}
	rs.keys, rs.vals = keys, ids
	putRadixScratch(rs)
}

// SplitSubtreesNaive is the ablation baseline for SplitSubtrees: it stops
// splitting as soon as the queue holds at least p subtrees (or the heaviest
// is a single node), instead of scanning all splitting ranks for the
// cost-optimal one (Lemma 1). Comparing the two isolates the value of the
// optimal stopping rule. p must be at least 1.
func SplitSubtreesNaive(t *tree.Tree, p int) (Splitting, error) {
	if _, err := uniformChecked(p); err != nil {
		return Splitting{}, err
	}
	n := t.Len()
	if n == 0 {
		return Splitting{}, nil
	}
	W := t.SubtreeW()
	key := func(v int) splitKey { return splitKey{W: W[v], w: t.W(v), id: v} }
	q := newSplitQueue(p)
	q.Push(key(t.Root()))
	var sp Splitting
	var seqSum float64
	for q.Len() < p {
		head := q.Max()
		if head.W <= head.w {
			break
		}
		q.PopMax()
		sp.SeqNodes = append(sp.SeqNodes, head.id)
		seqSum += t.W(head.id)
		for _, c := range t.Children(head.id) {
			q.Push(key(c))
		}
	}
	sp.PredictedMakespan = q.Max().W + seqSum + (q.SumAll() - q.SumTop())
	sp.SubtreeRoots = q.appendIDs(make([]int, 0, q.Len()))
	q.release()
	sortHeaviestFirst(sp.SubtreeRoots, t, W)
	return sp, nil
}

// splitShare lets the heuristics of one selection (Options.SelectPre)
// share a splitting: both ParSubtrees variants split the tree the same way
// for a given p, so whichever runs second reuses the first's result. It
// holds one entry, keyed by p, and lives only as long as the selection; a
// nil share splits on every call.
type splitShare struct {
	mu sync.Mutex
	p  int // 0 while empty
	sp Splitting
}

// get returns the splitting of pc's tree for p, computing it at most once
// per share and p. Callers must not modify the returned slices.
func (sh *splitShare) get(pc *Precompute, p int) Splitting {
	if sh == nil {
		return splitSubtreesW(pc.t, p, pc.subtreeW())
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.p != p {
		sh.sp, sh.p = splitSubtreesW(pc.t, p, pc.subtreeW()), p
	}
	return sh.sp
}

// parSubtrees runs IDParSubtrees (optim false) or IDParSubtreesOptim
// (optim true) on pc's tree and m. Each subtree's memory-optimal postorder
// is emitted straight from the whole-tree postorder index (the
// child-ordering rule is subtree-local), so no subtree is extracted or
// traversed again. On a heterogeneous machine subtrees are placed by
// speed-aware LPT (heaviest subtree onto the processor that finishes it
// earliest) and the sequential phase runs on the fastest processor.
func parSubtrees(pc *Precompute, m *machine.Model, optim bool, share *splitShare) (*Schedule, error) {
	p := m.P()
	t := pc.t
	n := t.Len()
	s := &Schedule{Start: make([]float64, n), Proc: make([]int, n), P: p, M: hetModel(m)}
	if n == 0 {
		return s, nil
	}
	// The splitting targets p subtrees by total work; speeds enter at
	// placement time, not in the decomposition.
	sp := share.get(pc, p)
	W := pc.subtreeW()
	sc := getSubtreeScratch(n, p)

	// Phase 1: process subtrees in parallel. Plain ParSubtrees runs only
	// the p heaviest subtrees concurrently; the surplus joins the
	// sequential phase. ParSubtreesOptim LPT-packs all of them.
	parallelRoots := sp.SubtreeRoots
	if !optim && len(parallelRoots) > p {
		parallelRoots = parallelRoots[:p]
	}
	st := machine.NewState(m)
	// LPT allocation: roots are already ordered heaviest-first; place each
	// where it finishes earliest (on a uniform machine: the least-loaded
	// processor). For plain ParSubtrees there are at most p roots, so each
	// lands on its own processor.
	for _, r := range parallelRoots {
		proc := st.PickEarliest(W[r])
		lo := len(sc.order)
		if t.IsLeaf(r) {
			sc.order = append(sc.order, r)
		} else {
			sc.order = pc.ix.AppendSubtreeOrder(t, r, sc.order)
		}
		st.Occupy(proc, sc.place(t, m, s, proc, lo, st.BusyUntil(proc), true))
		sc.done[r] = true
	}
	phase1End := st.MaxBusy()
	st.Recycle()

	// Phase 2: remaining nodes sequentially on the fastest processor
	// (processor 0 on a uniform machine), in the memory-minimizing order
	// of the quotient tree (see appendPhase2).
	if !sc.done[t.Root()] {
		lo := len(sc.order)
		sc.order = sc.appendPhase2(t, sc.order)
		sc.place(t, m, s, m.Fastest(), lo, phase1End, false)
	}
	for _, r := range parallelRoots {
		sc.done[r] = false
	}
	// Zero-duration tasks would need the simulator's pulse ordering, so
	// their presence skips the cache (matching the other schedulers).
	if !sc.pulse {
		s.setPeak(sc.streamPeak())
	}
	putSubtreeScratch(sc)
	return s, nil
}

// place runs order[lo:] back to back on processor proc from time at,
// records it as the processor's next run with each task's event for
// streamPeak, and returns the time the run ends. A postorder run (a whole
// subtree) reads each task's inputs off a stack of its earlier outputs
// instead of visiting the children: they are the top NumChildren entries.
func (sc *subtreeScratch) place(t *tree.Tree, m *machine.Model, s *Schedule, proc, lo int, at float64, postorder bool) float64 {
	r := int32(len(sc.runs))
	sc.runs = append(sc.runs, run{at: at, lo: int32(lo), hi: int32(len(sc.order)), next: -1})
	if pr := &sc.procs[proc]; pr.tail < 0 {
		pr.head, pr.tail = r, r
	} else {
		sc.runs[pr.tail].next, pr.tail = r, r
	}
	outs := append(sc.outs[:0], 0)
	for k := lo; k < len(sc.order); k++ {
		v := sc.order[k]
		s.Start[v] = at
		s.Proc[v] = proc
		at += m.ExecTime(t.W(v), proc)
		var in int64
		if postorder {
			below := len(outs) - 1 - t.NumChildren(v)
			in = outs[len(outs)-1] - outs[below]
			outs = append(outs[:below+1], outs[below]+t.F(v))
		} else {
			in = t.InSize(v)
		}
		sc.ev[k] = taskEvent{end: at, alloc: t.N(v) + t.F(v), free: t.N(v) + in}
		sc.pulse = sc.pulse || t.W(v) == 0
	}
	sc.outs = outs
	return at
}

// subtreeScratch is the reusable working set of one ParSubtrees call,
// recycled through subtreePool like the event engine's scratch, so
// a warm call allocates only its Schedule and, unless a selection's share
// already holds it, its Splitting.
type subtreeScratch struct {
	// order holds every task in placement order: one run per parallel
	// subtree, then the phase-2 run; ev holds their events, by position.
	// Each processor executes its runs back to back, in placement order.
	// pulse records a zero-duration task.
	order []int
	ev    []taskEvent
	runs  []run
	procs []procCursor
	pulse bool
	// done marks the parallel roots during a call; it is all false between
	// calls.
	done []bool

	// appendPhase2: remaining nodes breadth-first (bfs), each position's
	// children run kid[i]..kid[i+1] of perm, and per-position DP values.
	bfs, kid, perm []int32
	peak, key      []int64
	stack          []int64

	// streamPeak's heap of the processors' next events; place's output
	// sizes of a postorder run's tasks not yet consumed, as prefix sums.
	heap []streamEvent
	outs []int64
}

// taskEvent is what streamPeak needs of one task: when it ends, and the
// memory its start allocates (n + f) and its end frees (n + its inputs).
type taskEvent struct {
	end         float64
	alloc, free int64
}

// run is a stretch order[lo:hi] that one processor executes back to back
// from time at; next is that processor's following run (-1: none).
type run struct {
	at           float64
	lo, hi, next int32
}

// procCursor holds a processor's first and last runs (-1: none) and
// streamPeak's position in its stream: the current run and task.
type procCursor struct {
	head, tail, run, cur int32
}

var subtreePool = sync.Pool{New: func() any { return new(subtreeScratch) }}

// resize returns s with length n, reallocating only when its capacity is
// short. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func getSubtreeScratch(n, p int) *subtreeScratch {
	sc := subtreePool.Get().(*subtreeScratch)
	if cap(sc.done) < n {
		sc.done = make([]bool, n) // all false, as the pool invariant needs
	}
	sc.done = sc.done[:n]
	sc.order = sc.order[:0]
	sc.ev = resize(sc.ev, n)
	sc.runs = sc.runs[:0]
	sc.procs = resize(sc.procs, p)
	for q := range sc.procs {
		sc.procs[q] = procCursor{head: -1, tail: -1}
	}
	sc.pulse = false
	return sc
}

func putSubtreeScratch(sc *subtreeScratch) { subtreePool.Put(sc) }

// appendPhase2 appends to dst the order of phase 2: the nodes outside
// every subtree rooted at a marked (done) parallel root, in the best
// postorder (Liu's DP) of the quotient tree in which each done child is a
// zero-work stub leaf carrying its output file f_c.
//
// The DP runs directly over the remaining nodes; no quotient tree is
// built. A stub's peak is f_c, so its key (peak - f) is 0, while a
// remaining child's key is at least its n_c >= 0. On equal keys a
// remaining child goes before a stub, then ascending id, so each node
// visits its remaining children by non-increasing key and ascending id,
// and then its stubs in ascending id. Stubs emit nothing.
func (sc *subtreeScratch) appendPhase2(t *tree.Tree, dst []int) []int {
	// Breadth-first from the root, the children of position i take
	// positions kid[i]..kid[i+1] in ascending id, so within one run
	// position order is id order.
	bfs := append(sc.bfs[:0], int32(t.Root()))
	kid := sc.kid[:0]
	for i := 0; i < len(bfs); i++ {
		kid = append(kid, int32(len(bfs)))
		for _, c := range t.Children(int(bfs[i])) {
			if !sc.done[c] {
				bfs = append(bfs, int32(c))
			}
		}
	}
	r := len(bfs)
	kid = append(kid, int32(r))
	// perm[kid[i]:kid[i+1]] is position i's children in visit order; the
	// DP sorts each run once, children (higher positions) first.
	perm := resize(sc.perm, r)
	for j := range perm {
		perm[j] = int32(j)
	}
	peak, key := resize(sc.peak, r), resize(sc.key, r)
	for i := r - 1; i >= 0; i-- {
		v := int(bfs[i])
		run := perm[kid[i]:kid[i+1]]
		sortRunByKey(run, key)
		var resident, pk int64
		for _, j := range run {
			if q := resident + peak[j]; q > pk {
				pk = q
			}
			resident += t.F(int(bfs[j]))
		}
		for _, c := range t.Children(v) { // the stubs, last
			if sc.done[c] {
				if q := resident + t.F(c); q > pk {
					pk = q
				}
				resident += t.F(c)
			}
		}
		if q := resident + t.N(v) + t.F(v); q > pk {
			pk = q
		}
		peak[i] = pk
		key[i] = pk - t.F(v)
	}
	// Emit the postorder with an explicit stack of position<<32|cursor
	// frames (trees can be very deep).
	stack := append(sc.stack[:0], int64(kid[0]))
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		i, k := int(fr>>32), int32(fr)
		if k < kid[i+1] {
			stack[len(stack)-1] = fr + 1
			j := perm[k]
			stack = append(stack, int64(j)<<32|int64(kid[j]))
			continue
		}
		dst = append(dst, int(bfs[i]))
		stack = stack[:len(stack)-1]
	}
	sc.bfs, sc.kid, sc.perm, sc.peak, sc.key, sc.stack = bfs, kid, perm, peak, key, stack
	return dst
}

// sortRunByKey orders one run of child positions by non-increasing key,
// ascending position (= ascending id) on ties. Short runs use insertion
// sort; a long one (a fork's root has ~n children) radixScratch.sort, a
// stable sort, since the run arrives in ascending position.
func sortRunByKey(run []int32, key []int64) {
	if len(run) <= 20 {
		for i := 1; i < len(run); i++ {
			c := run[i]
			k := key[c]
			j := i - 1
			for j >= 0 && (key[run[j]] < k || (key[run[j]] == k && run[j] > c)) {
				run[j+1] = run[j]
				j--
			}
			run[j+1] = c
		}
		return
	}
	rs := getRadixScratch()
	keys := resize(rs.keys, len(run))
	for i, c := range run {
		keys[i] = ^(uint64(key[c]) ^ 1<<63) // ascending exactly as key descends
	}
	rs.sort(keys, run)
	rs.keys = keys
	putRadixScratch(rs)
}

// streamPeak computes the schedule's exact simulated peak by merging the
// per-processor event streams, each already in time order (a processor's
// runs execute back to back), through a heap of the processors' next
// events: O(n log p), with no global event sort. Ends are processed before
// starts at equal instants (the simulator's tie rule), then the lower
// processor id; order within a kind cannot change the peak. The event
// times are those place recorded: a run's first start is its at, every
// other start is its predecessor's end. The caller must have ruled out
// zero-duration tasks.
func (sc *subtreeScratch) streamPeak() int64 {
	h := sc.heap[:0]
	for q := range sc.procs {
		pr := &sc.procs[q]
		if pr.head >= 0 {
			pr.run, pr.cur = pr.head, sc.runs[pr.head].lo
			h = append(h, streamEvent{at: sc.runs[pr.head].at, ord: startEvent | uint32(q)})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownEvents(h, i)
	}
	var mem, peak int64
	for len(h) > 0 {
		q := h[0].ord &^ startEvent
		pr := &sc.procs[q]
		ev := &sc.ev[pr.cur]
		if h[0].ord&startEvent != 0 {
			mem += ev.alloc
			if mem > peak {
				peak = mem
			}
			h[0] = streamEvent{at: ev.end, ord: q}
		} else {
			mem -= ev.free
			h[0].ord |= startEvent // the next start is at this end's time
			if pr.cur++; pr.cur == sc.runs[pr.run].hi {
				r := sc.runs[pr.run].next
				if r < 0 { // stream exhausted
					last := len(h) - 1
					h[0] = h[last]
					h = h[:last]
					siftDownEvents(h, 0)
					continue
				}
				pr.run, pr.cur, h[0].at = r, sc.runs[r].lo, sc.runs[r].at
			}
		}
		siftDownEvents(h, 0)
	}
	sc.heap = h
	return peak
}

// streamEvent is a processor's next event in streamPeak: its time, then
// ord, which is the processor id with startEvent set on a start, so that
// ends sort before starts and then by processor.
type streamEvent struct {
	at  float64
	ord uint32
}

const startEvent = 1 << 31

func (a streamEvent) before(b streamEvent) bool {
	return a.at < b.at || (a.at == b.at && a.ord < b.ord)
}

func siftDownEvents(h []streamEvent, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
