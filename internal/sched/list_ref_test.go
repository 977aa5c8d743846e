package sched

import (
	"cmp"
	"fmt"
	"slices"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// This file keeps the earlier event-driven schedulers as the reference of
// the differential tests: rankings built by comparator sorts and packed
// integer keys, a binary ready heap of node ids compared through those
// keys, a finish heap of three parallel slices, input sizes summed over the
// children on every completion, and a booking scan that pops up to 256
// ready tasks per event and pushes the skipped ones back.

// refRanks holds the reference keys of the four ready-queue orders:
// key[v] < key[u] iff v goes before u.
type refRanks struct {
	inner, innerArb, deep, book []uint64
}

func refRankings(pc *Precompute) refRanks {
	t := pc.t
	depth, leaf := depthsAndLeaves(t)
	wdepth, pos := t.WDepths(), pc.Pos()
	return refRanks{
		inner:    refPackInnerRank(depth, leaf, pos),
		innerArb: refPackInnerRank(depth, leaf, nil),
		deep: refBuildRank(t.Len(), func(a, b int32) int {
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
		}),
		book: refBuildRank(t.Len(), func(a, b int32) int {
			if wdepth[a] != wdepth[b] {
				if wdepth[a] > wdepth[b] {
					return -1
				}
				return 1
			}
			return pos[a] - pos[b]
		}),
	}
}

// refDense maps order-preserving keys to their dense ranks 0..n-1.
func refDense(key []uint64) []uint64 {
	return refBuildRank(len(key), func(a, b int32) int { return cmp.Compare(key[a], key[b]) })
}

// refBuildRank converts a total-order comparator into its rank permutation:
// rank[v] = v's position in the sorted node sequence.
func refBuildRank(n int, cmp func(a, b int32) int) []uint64 {
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

// refPackInnerRank packs the ParInnerFirst order into per-node integer
// keys over positions pos (nil means natural node order): leaf bit, then
// inverted depth (inner nodes only), then position.
func refPackInnerRank(depth []int32, leaf []bool, pos []int) []uint64 {
	const depthMask = uint64(1)<<31 - 1
	rank := make([]uint64, len(depth))
	for v := range rank {
		p := uint64(v)
		if pos != nil {
			p = uint64(pos[v])
		}
		if leaf[v] {
			rank[v] = 1<<62 | p
		} else {
			rank[v] = (depthMask-uint64(depth[v]))<<31 | p
		}
	}
	return rank
}

func refReadyPush(h []int32, v int32, rank []uint64) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if rank[h[parent]] <= rank[h[i]] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

func refReadyPop(h []int32, rank []uint64) (int32, []int32) {
	v := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	refReadySiftDown(h, 0, rank)
	return v, h
}

func refReadyRemove(h []int32, i int, rank []uint64) []int32 {
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		h = h[:last]
		j := i
		for j > 0 && rank[h[(j-1)/2]] > rank[h[j]] {
			h[(j-1)/2], h[j] = h[j], h[(j-1)/2]
			j = (j - 1) / 2
		}
		if j == i {
			refReadySiftDown(h, i, rank)
		}
		return h
	}
	return h[:last]
}

func refReadyInit(h []int32, rank []uint64) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		refReadySiftDown(h, i, rank)
	}
}

func refReadySiftDown(h []int32, i int, rank []uint64) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && rank[h[r]] < rank[h[l]] {
			m = r
		}
		if rank[h[i]] <= rank[h[m]] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// refFinishHeap orders pending completion events by time, ties by node id,
// in three parallel slices.
type refFinishHeap struct {
	at   []float64
	node []int32
	proc []int32
}

func (h *refFinishHeap) Len() int { return len(h.at) }

func (h *refFinishHeap) less(i, j int) bool {
	if h.at[i] != h.at[j] {
		return h.at[i] < h.at[j]
	}
	return h.node[i] < h.node[j]
}

func (h *refFinishHeap) swap(i, j int) {
	h.at[i], h.at[j] = h.at[j], h.at[i]
	h.node[i], h.node[j] = h.node[j], h.node[i]
	h.proc[i], h.proc[j] = h.proc[j], h.proc[i]
}

func (h *refFinishHeap) push(at float64, node, proc int32) {
	h.at = append(h.at, at)
	h.node = append(h.node, node)
	h.proc = append(h.proc, proc)
	i := h.Len() - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *refFinishHeap) pop() (at float64, node, proc int32) {
	at, node, proc = h.at[0], h.node[0], h.proc[0]
	last := h.Len() - 1
	h.swap(0, last)
	h.at, h.node, h.proc = h.at[:last], h.node[:last], h.proc[:last]
	n := last
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h.swap(i, m)
		i = m
	}
	return at, node, proc
}

// refListScheduleRank is the reference list scheduling of paper Algorithm
// 3 over a ready heap keyed by rank.
func refListScheduleRank(t *tree.Tree, m *machine.Model, rank []uint64) (*Schedule, error) {
	n := t.Len()
	s := &Schedule{Start: make([]float64, n), Proc: make([]int, n), P: m.P(), M: hetModel(m)}
	if n == 0 {
		return s, nil
	}
	remaining := make([]int32, n)
	var ready []int32
	st := machine.NewState(m)
	defer st.Recycle()
	hasPulse := false
	for v := 0; v < n; v++ {
		remaining[v] = int32(t.NumChildren(v))
		if remaining[v] == 0 {
			ready = append(ready, int32(v))
		}
		hasPulse = hasPulse || t.W(v) == 0
	}
	refReadyInit(ready, rank)
	fin := &refFinishHeap{}
	now := 0.0
	scheduled := 0
	var mem, peak int64

	assign := func() {
		for st.Idle() > 0 && len(ready) > 0 {
			proc := st.Take()
			var v int32
			v, ready = refReadyPop(ready, rank)
			s.Start[v] = now
			s.Proc[v] = int(proc)
			mem += t.N(int(v)) + t.F(int(v))
			fin.push(now+m.ExecTime(t.W(int(v)), int(proc)), v, proc)
			scheduled++
		}
		if mem > peak {
			peak = mem
		}
	}
	complete := func(v int32) {
		mem -= t.N(int(v)) + t.InSize(int(v))
		if pa := t.Parent(int(v)); pa != tree.None {
			remaining[pa]--
			if remaining[pa] == 0 {
				ready = refReadyPush(ready, int32(pa), rank)
			}
		}
	}
	assign()
	for fin.Len() > 0 {
		at, v, proc := fin.pop()
		now = at
		st.Put(proc)
		complete(v)
		for fin.Len() > 0 && fin.at[0] == now {
			_, v2, proc2 := fin.pop()
			st.Put(proc2)
			complete(v2)
		}
		assign()
	}
	if scheduled != n {
		return nil, fmt.Errorf("reference: scheduled %d of %d nodes", scheduled, n)
	}
	if !hasPulse {
		s.setPeak(peak)
	}
	return s, nil
}

// refMemCapped is the reference memCapped.
func refMemCapped(pc *Precompute, m *machine.Model, cap int64) (*Schedule, error) {
	t := pc.t
	if pc.MSeq() > cap {
		return nil, fmt.Errorf("reference: memory cap %d below sequential requirement %d", cap, pc.MSeq())
	}
	n := t.Len()
	s := &Schedule{Start: make([]float64, n), Proc: make([]int, n), P: m.P(), M: hetModel(m)}
	if n == 0 {
		return s, nil
	}
	order := pc.Order()
	remaining := make([]int32, n)
	st := machine.NewState(m)
	defer st.Recycle()
	hasPulse := false
	for v := 0; v < n; v++ {
		remaining[v] = int32(t.NumChildren(v))
		hasPulse = hasPulse || t.W(v) == 0
	}
	fin := &refFinishHeap{}
	var mem, peak int64
	now := 0.0
	next := 0

	startNext := func() {
		for next < n && st.Idle() > 0 {
			v := order[next]
			if remaining[v] != 0 || mem+t.N(v)+t.F(v) > cap {
				return
			}
			proc := st.Take()
			s.Start[v] = now
			s.Proc[v] = int(proc)
			mem += t.N(v) + t.F(v)
			if mem > peak {
				peak = mem
			}
			fin.push(now+m.ExecTime(t.W(v), int(proc)), int32(v), proc)
			next++
		}
	}
	complete := func(v int32) {
		mem -= t.N(int(v)) + t.InSize(int(v))
		if pa := t.Parent(int(v)); pa != tree.None {
			remaining[pa]--
		}
	}
	startNext()
	for fin.Len() > 0 {
		at, v, proc := fin.pop()
		now = at
		complete(v)
		st.Put(proc)
		for fin.Len() > 0 && fin.at[0] == now {
			_, v2, proc2 := fin.pop()
			complete(v2)
			st.Put(proc2)
		}
		startNext()
	}
	if next != n {
		return nil, fmt.Errorf("reference: activated %d of %d tasks", next, n)
	}
	if !hasPulse {
		s.setPeak(peak)
	}
	return s, nil
}

// refMemCappedBooking is the reference memCappedBooking, admitting in the
// order of the booking keys rank.
func refMemCappedBooking(pc *Precompute, m *machine.Model, cap int64, rank []uint64) (*Schedule, error) {
	t := pc.t
	n := t.Len()
	s := &Schedule{Start: make([]float64, n), Proc: make([]int, n), P: m.P(), M: hetModel(m)}
	if n == 0 {
		return s, nil
	}
	order, pos, futurePeak := pc.Order(), pc.Pos(), pc.FuturePeak()
	if futurePeak[0] > cap {
		return nil, fmt.Errorf("reference: memory cap %d below sequential requirement %d", cap, futurePeak[0])
	}
	remaining := make([]int32, n)
	var ready, skipped []int32
	st := machine.NewState(m)
	defer st.Recycle()
	started, outOfOrder := make([]bool, n), make([]bool, n)
	hasPulse := false
	for v := 0; v < n; v++ {
		remaining[v] = int32(t.NumChildren(v))
		if remaining[v] == 0 {
			ready = append(ready, int32(v))
		}
		hasPulse = hasPulse || t.W(v) == 0
	}
	refReadyInit(ready, rank)
	fin := &refFinishHeap{}

	var (
		mem       int64
		peak      int64
		extraUsed int64
		next      int
		now       float64
	)
	const admissionWindow = 256

	start := func(v int, proc int32) {
		s.Start[v] = now
		s.Proc[v] = int(proc)
		started[v] = true
		mem += t.N(v) + t.F(v)
		if mem > peak {
			peak = mem
		}
		fin.push(now+m.ExecTime(t.W(v), int(proc)), int32(v), proc)
		if pos[v] > next {
			outOfOrder[v] = true
			extraUsed += t.N(v) + t.F(v)
		}
		for next < n && started[order[next]] {
			next++
		}
	}
	admissible := func(v int) bool {
		foot := t.N(v) + t.F(v)
		if mem+foot > cap {
			return false
		}
		if pos[v] == next {
			return true
		}
		return extraUsed+foot <= cap-futurePeak[next]
	}
	assign := func() {
		skipped = skipped[:0]
		scanned := 0
		for st.Idle() > 0 && len(ready) > 0 && scanned < admissionWindow {
			var v int32
			v, ready = refReadyPop(ready, rank)
			scanned++
			if !admissible(int(v)) {
				skipped = append(skipped, v)
				continue
			}
			start(int(v), st.Take())
		}
		for _, v := range skipped {
			ready = refReadyPush(ready, v, rank)
		}
		if st.Idle() > 0 && next < n {
			v := order[next]
			if !started[v] && remaining[v] == 0 && admissible(v) {
				for i, u := range ready {
					if int(u) == v {
						ready = refReadyRemove(ready, i, rank)
						start(v, st.Take())
						break
					}
				}
			}
		}
	}

	complete := func(v int, proc int32) {
		mem -= t.N(v) + t.InSize(v)
		if outOfOrder[v] {
			extraUsed -= t.N(v)
		}
		for _, c := range t.Children(v) {
			if outOfOrder[c] {
				extraUsed -= t.F(c)
				outOfOrder[c] = false
			}
		}
		st.Put(proc)
		if pa := t.Parent(v); pa != tree.None {
			remaining[pa]--
			if remaining[pa] == 0 {
				ready = refReadyPush(ready, int32(pa), rank)
			}
		}
	}

	assign()
	done := 0
	for fin.Len() > 0 {
		at, v, proc := fin.pop()
		now = at
		complete(int(v), proc)
		done++
		for fin.Len() > 0 && fin.at[0] == now {
			_, v2, proc2 := fin.pop()
			complete(int(v2), proc2)
			done++
		}
		assign()
	}
	if done != n {
		return nil, fmt.Errorf("reference: booking scheduler finished %d of %d tasks", done, n)
	}
	if !hasPulse {
		s.setPeak(peak)
	}
	return s, nil
}
