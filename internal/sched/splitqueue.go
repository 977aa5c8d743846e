package sched

import "sync"

// splitKey orders subtree roots in SplitSubtrees: by non-increasing subtree
// weight W, ties by non-increasing node weight w (paper Alg. 2), final ties
// by node id for determinism.
type splitKey struct {
	W, w float64
	id   int
}

func (a splitKey) greater(b splitKey) bool {
	if a.W != b.W {
		return a.W > b.W
	}
	if a.w != b.w {
		return a.w > b.w
	}
	return a.id < b.id
}

// maxKeyHeap and minKeyHeap are typed binary heaps over splitKey. They
// deliberately do not implement container/heap: every container/heap
// Push/Pop boxes the 24-byte key into an interface{}, which made the split
// queue the dominant allocation site of the whole scheduling core.
type maxKeyHeap []splitKey

func (h *maxKeyHeap) push(x splitKey) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].greater(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *maxKeyHeap) pop() splitKey {
	s := *h
	x := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && s[r].greater(s[l]) {
			m = r
		}
		if !s[m].greater(s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return x
}

type minKeyHeap []splitKey

func (h *minKeyHeap) push(x splitKey) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[parent].greater(s[i]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// remove deletes and returns the element at index i, restoring the heap.
func (h *minKeyHeap) remove(i int) splitKey {
	s := *h
	x := s[i]
	last := len(s) - 1
	s[i] = s[last]
	s = s[:last]
	*h = s
	if i == last {
		return x
	}
	// Sift whichever direction restores the invariant.
	j := i
	for j > 0 && s[(j-1)/2].greater(s[j]) {
		s[(j-1)/2], s[j] = s[j], s[(j-1)/2]
		j = (j - 1) / 2
	}
	if j != i {
		return x
	}
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && s[m].greater(s[r]) {
			m = r
		}
		if !s[i].greater(s[m]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return x
}

func (h *minKeyHeap) pop() splitKey { return h.remove(0) }

// siftDown restores the invariant after s[i] grew (heap.Fix equivalent for
// a replaced root).
func (h minKeyHeap) siftDown(i int) {
	s := h
	n := len(s)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[m].greater(s[r]) {
			m = r
		}
		if !s[i].greater(s[m]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// splitQueue is the priority queue of SplitSubtrees augmented with O(1)
// access to the sum of the k heaviest subtree weights, so that the cost
// C_max(s) of every candidate splitting is evaluated in O(k + log n). It
// maintains the k largest keys in a min-heap (`top`) and the remainder in a
// max-heap (`rest`); the maximum is always in `top`. Queues are recycled
// through a pool, together with the splitting pass's own scratch (its pop
// record and a per-node mark).
type splitQueue struct {
	k      int
	top    minKeyHeap
	rest   maxKeyHeap
	sumTop float64 // sum of W over top
	sumAll float64 // sum of W over top and rest

	pops []int  // splitSubtreesW's pop record
	mark []bool // all false between uses (see marks)
}

var splitQueuePool = sync.Pool{New: func() any { return new(splitQueue) }}

func newSplitQueue(k int) *splitQueue {
	q := splitQueuePool.Get().(*splitQueue)
	q.k = k
	q.top = q.top[:0]
	q.rest = q.rest[:0]
	q.sumTop = 0
	q.sumAll = 0
	return q
}

// release returns the queue's buffers to the pool.
func (q *splitQueue) release() { splitQueuePool.Put(q) }

// marks returns a per-node flag array of length n, all false; the caller
// must clear every flag it sets before release.
func (q *splitQueue) marks(n int) []bool {
	if cap(q.mark) < n {
		q.mark = make([]bool, n)
	}
	q.mark = q.mark[:n]
	return q.mark
}

func (q *splitQueue) Len() int { return len(q.top) + len(q.rest) }

// SumAll returns the total subtree weight of all queued roots.
func (q *splitQueue) SumAll() float64 { return q.sumAll }

// SumTop returns the total subtree weight of the min(k, Len()) heaviest
// queued roots.
func (q *splitQueue) SumTop() float64 { return q.sumTop }

// Push inserts a root.
func (q *splitQueue) Push(x splitKey) {
	q.sumAll += x.W
	if len(q.top) < q.k {
		q.top.push(x)
		q.sumTop += x.W
		return
	}
	if x.greater(q.top[0]) {
		evicted := q.top[0]
		q.top[0] = x
		q.top.siftDown(0)
		q.sumTop += x.W - evicted.W
		q.rest.push(evicted)
		return
	}
	q.rest.push(x)
}

// sumTopButOne returns the total subtree weight of the k-1 heaviest
// queued roots, or of all of them when fewer than k are queued.
func (q *splitQueue) sumTopButOne() float64 {
	if len(q.top) < q.k {
		return q.sumTop
	}
	return q.sumTop - q.top[0].W
}

// maxIndex returns the index in top of the globally heaviest root.
// Cost: O(k) scan of the top heap.
func (q *splitQueue) maxIndex() int {
	best := 0
	for i := 1; i < len(q.top); i++ {
		if q.top[i].greater(q.top[best]) {
			best = i
		}
	}
	return best
}

// Max returns the globally heaviest root without removing it.
func (q *splitQueue) Max() splitKey { return q.top[q.maxIndex()] }

// PopMax removes and returns the globally heaviest root.
func (q *splitQueue) PopMax() splitKey { return q.removeTop(q.maxIndex()) }

// removeTop removes and returns top[i], refilling top from rest to keep
// the k-largest invariant.
func (q *splitQueue) removeTop(i int) splitKey {
	x := q.top.remove(i)
	q.sumTop -= x.W
	q.sumAll -= x.W
	if len(q.rest) > 0 {
		y := q.rest.pop()
		q.top.push(y)
		q.sumTop += y.W
	}
	return x
}

// appendIDs appends the ids of all queued roots to dst, in no particular
// order.
func (q *splitQueue) appendIDs(dst []int) []int {
	for _, x := range q.top {
		dst = append(dst, x.id)
	}
	for _, x := range q.rest {
		dst = append(dst, x.id)
	}
	return dst
}
