package sched

import (
	"math/rand"
	"sort"
	"testing"

	"treesched/internal/tree"
)

// refQueue is a naive reference implementation of splitQueue.
type refQueue struct {
	k    int
	keys []splitKey
}

func (q *refQueue) push(x splitKey) { q.keys = append(q.keys, x) }

func (q *refQueue) sorted() []splitKey {
	out := append([]splitKey(nil), q.keys...)
	sort.Slice(out, func(a, b int) bool { return out[a].greater(out[b]) })
	return out
}

func (q *refQueue) popMax() splitKey {
	s := q.sorted()
	max := s[0]
	for i, x := range q.keys {
		if x == max {
			q.keys = append(q.keys[:i], q.keys[i+1:]...)
			break
		}
	}
	return max
}

func (q *refQueue) sumTop() float64 {
	s := q.sorted()
	var sum float64
	for i := 0; i < len(s) && i < q.k; i++ {
		sum += s[i].W
	}
	return sum
}

func (q *refQueue) sumAll() float64 {
	var sum float64
	for _, x := range q.keys {
		sum += x.W
	}
	return sum
}

func TestSplitQueueAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(6)
		q := newSplitQueue(k)
		ref := &refQueue{k: k}
		id := 0
		for op := 0; op < 300; op++ {
			if q.Len() != len(ref.keys) {
				t.Fatalf("len mismatch: %d vs %d", q.Len(), len(ref.keys))
			}
			if q.Len() == 0 || rng.Float64() < 0.6 {
				x := splitKey{W: float64(rng.Intn(20)), w: float64(rng.Intn(5)), id: id}
				id++
				q.Push(x)
				ref.push(x)
			} else {
				got, want := q.PopMax(), ref.popMax()
				if got != want {
					t.Fatalf("PopMax = %+v, want %+v", got, want)
				}
			}
			if q.Len() > 0 {
				if got, want := q.Max(), ref.sorted()[0]; got != want {
					t.Fatalf("Max = %+v, want %+v", got, want)
				}
			}
			if got, want := q.SumTop(), ref.sumTop(); got != want {
				t.Fatalf("SumTop = %g, want %g", got, want)
			}
			if got, want := q.SumAll(), ref.sumAll(); got != want {
				t.Fatalf("SumAll = %g, want %g", got, want)
			}
		}
	}
}

// TestSplitQueueRootsSortHeaviestFirst: the queued ids, sorted by
// sortHeaviestFirst, come out in exactly the order repeated PopMax calls
// would pop them — the order of Splitting.SubtreeRoots — with W and w ties.
func TestSplitQueueRootsSortHeaviestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n = 64
	par := make([]int, n)
	ws := make([]float64, n)
	for i := range par {
		par[i] = i - 1 // a chain; only the weights matter here
		ws[i] = float64(rng.Intn(4))
	}
	tr := tree.MustNew(par, ws, make([]int64, n), make([]int64, n))
	W := make([]float64, n)
	for i := range W {
		W[i] = float64(rng.Intn(8))
	}
	q := newSplitQueue(3)
	for i := 0; i < n; i++ {
		q.Push(splitKey{W: W[i], w: ws[i], id: i})
	}
	got := q.appendIDs(nil)
	if len(got) != n {
		t.Fatalf("appendIDs returned %d of %d ids", len(got), n)
	}
	sortHeaviestFirst(got, tr, W)
	for i := 0; q.Len() > 0; i++ {
		if want := q.PopMax().id; got[i] != want {
			t.Fatalf("position %d: sorted id %d, PopMax %d", i, got[i], want)
		}
	}
	q.release()
}

func TestSplitKeyTieBreaks(t *testing.T) {
	a := splitKey{W: 5, w: 2, id: 1}
	b := splitKey{W: 5, w: 2, id: 2}
	c := splitKey{W: 5, w: 3, id: 3}
	if !c.greater(a) {
		t.Errorf("heavier own-weight should win at equal W")
	}
	if !a.greater(b) {
		t.Errorf("smaller id should win at full tie")
	}
}
