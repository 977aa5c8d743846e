package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRankSetMatchesSortedSlice drives a rankSet with random adds, removes
// and pops and checks every query against a sorted slice of the members,
// at sizes around the 64-rank word and level boundaries, with the set kept
// sparse (a lone member lives outside the bitsets) and dense in turn.
func TestRankSetMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s rankSet
	for _, n := range []int{1, 2, 63, 64, 65, 4095, 4096, 4097, 262145} {
		s.reset(n)
		var members []int32
		from := func(r int32) int32 { // smallest member >= r, or -1
			if i, _ := slices.BinarySearch(members, r); i < len(members) {
				return members[i]
			}
			return -1
		}
		for step := 0; step < 20000; step++ {
			dense := step/2000%2 == 1
			r := int32(rng.Intn(n))
			i, in := slices.BinarySearch(members, r)
			switch {
			case !in && (dense || len(members) == 0 || rng.Intn(3) == 0):
				s.add(r)
				members = slices.Insert(members, i, r)
			case in:
				s.remove(r)
				members = slices.Delete(members, i, i+1)
			case len(members) > 0 && rng.Intn(2) == 0:
				if got := s.popMin(); got != members[0] {
					t.Fatalf("n=%d step %d: popMin %d, want %d", n, step, got, members[0])
				}
				members = members[1:]
			}
			if int(s.count) != len(members) {
				t.Fatalf("n=%d step %d: count %d, want %d", n, step, s.count, len(members))
			}
			if got, want := s.next(0), from(0); got != want {
				t.Fatalf("n=%d step %d: next(0) %d, want %d", n, step, got, want)
			}
			q := int32(rng.Intn(n + 1))
			if got, want := s.next(q), from(q); got != want {
				t.Fatalf("n=%d step %d: next(%d) %d, want %d", n, step, q, got, want)
			}
			if _, in := slices.BinarySearch(members, q); q < int32(n) && s.has(q) != in {
				t.Fatalf("n=%d step %d: has(%d) %v, want %v", n, step, q, s.has(q), in)
			}
		}
	}
}
