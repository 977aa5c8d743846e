package sched

import "math/bits"

// rankSetLevels bounds the height of a rankSet: six levels of 64-way
// words cover 64⁶ = 2³⁶ ranks, more than any tree of n < 2³¹ nodes has.
const rankSetLevels = 6

// rankSet is the ready set of the event-driven schedulers: a set of ranks
// (positions in a rankPerm) that pops its smallest member. It is a 64-ary
// tree of bitsets: lv[0] holds one bit per rank and bit i of lv[k+1] says
// that word i of lv[k] is non-zero, up to lv[top], a single word. It keeps
// its minimum and its size, and a lone member only as its minimum, with
// the bitsets empty: a chain keeps one task ready at a time, and its adds
// and pops then touch no bitset at all.
type rankSet struct {
	lv    [rankSetLevels][]uint64
	top   int
	min   int32 // smallest member while count > 0
	count int32
}

// reset empties the set and sizes it for ranks 0..n-1.
func (s *rankSet) reset(n int) {
	words := max((n+63)>>6, 1)
	for k := 0; ; k++ {
		s.lv[k] = resize(s.lv[k], words)
		clear(s.lv[k])
		if words == 1 {
			s.top = k
			break
		}
		words = (words + 63) >> 6
	}
	s.count = 0
}

// add inserts r, which must not be a member.
func (s *rankSet) add(r int32) {
	switch s.count {
	case 0:
		s.min, s.count = r, 1
		return
	case 1:
		s.set(s.min) // the lone member joins the bitsets
	}
	s.set(r)
	s.count++
	s.min = min(s.min, r)
}

// remove deletes r, which must be a member.
func (s *rankSet) remove(r int32) {
	s.count--
	if s.count == 0 { // r was the lone member
		return
	}
	s.unset(r)
	if r == s.min {
		s.min = s.succ(r)
	}
	if s.count == 1 { // the last member leaves the bitsets
		s.unset(s.min)
	}
}

// popMin removes and returns the smallest member; the set must not be
// empty.
func (s *rankSet) popMin() int32 {
	r := s.min
	s.remove(r)
	return r
}

// has reports whether r is a member.
func (s *rankSet) has(r int32) bool {
	if s.count == 1 {
		return r == s.min
	}
	return s.lv[0][uint32(r)>>6]&(1<<(uint32(r)&63)) != 0
}

// next returns the smallest member >= r, or -1 when there is none.
func (s *rankSet) next(r int32) int32 {
	switch {
	case s.count > 0 && r <= s.min:
		return s.min
	case s.count > 1:
		return s.succ(r)
	}
	return -1
}

// set marks r in the bitsets.
func (s *rankSet) set(r int32) {
	i := uint32(r)
	for k := 0; k <= s.top; k++ {
		w := &s.lv[k][i>>6]
		old := *w
		*w = old | 1<<(i&63)
		if old != 0 { // the levels above already mark this word
			return
		}
		i >>= 6
	}
}

// unset clears r in the bitsets.
func (s *rankSet) unset(r int32) {
	i := uint32(r)
	for k := 0; k <= s.top; k++ {
		w := &s.lv[k][i>>6]
		*w &^= 1 << (i & 63)
		if *w != 0 {
			return
		}
		i >>= 6
	}
}

// succ returns the smallest rank >= r marked in the bitsets, or -1.
func (s *rankSet) succ(r int32) int32 {
	i := uint32(r) // a position in level k's bits
	k := 0
	for {
		words := s.lv[k]
		wi := i >> 6
		if wi < uint32(len(words)) {
			if w := words[wi] & (^uint64(0) << (i & 63)); w != 0 {
				i = wi<<6 | uint32(bits.TrailingZeros64(w))
				break
			}
		}
		if k == s.top {
			return -1
		}
		i = wi + 1 // the next word of this level, as a bit of the level above
		k++
	}
	for ; k > 0; k-- {
		i = i<<6 | uint32(bits.TrailingZeros64(s.lv[k-1][i]))
	}
	return int32(i)
}
