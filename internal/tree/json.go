package tree

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// treeJSON is the wire form of a Tree used by the JSON codec and the
// scheduling service. parent[i] is the parent of node i, or -1 (None) for
// the root. n and f may be omitted, in which case they default to zero
// (the pure makespan model).
type treeJSON struct {
	Parent []int     `json:"parent"`
	W      []float64 `json:"w"`
	N      []int64   `json:"n,omitempty"`
	F      []int64   `json:"f,omitempty"`
}

// MarshalJSON encodes the tree as {"parent":[...],"w":[...],"n":[...],"f":[...]}.
func (t *Tree) MarshalJSON() ([]byte, error) {
	return json.Marshal(treeJSON{Parent: t.parent, W: t.w, N: t.n, F: t.f})
}

// UnmarshalJSON decodes the format produced by MarshalJSON and validates it
// with the same rules as New. Absent n/f arrays default to all-zero. It
// accepts exactly what encoding/json accepts for that format: member keys
// match case-insensitively, the last of duplicate members wins, unknown
// members are ignored, and null decodes to the empty tree (as a null
// member or array element decodes to zero).
func (t *Tree) UnmarshalJSON(data []byte) error {
	s := scanner{b: data}
	s.ws()
	var nt *Tree
	var err error
	if s.peek() == 'n' {
		if err = s.literal("null"); err == nil {
			nt = &Tree{root: None}
		}
	} else {
		nt, err = decodeJSON(&s, 1, math.MaxInt)
	}
	if err == nil {
		if s.ws(); s.i < len(data) {
			err = s.fail("after top-level value")
		}
	}
	if err != nil {
		return jsonError(err)
	}
	*t = *nt
	return nil
}

// decodeJSON decodes the tree object at the cursor, opened at nesting
// depth depth, and leaves the cursor after it. Each array's elements are
// counted before it is allocated; an array of more than maxNodes elements
// is validated but not stored, and the tree is then reported as too large
// (wrapping ErrTooLarge) once the whole object has been read.
func decodeJSON(s *scanner, depth, maxNodes int) (*Tree, error) {
	if s.peek() != '{' {
		return nil, fmt.Errorf("cannot decode a tree from a JSON value starting with %q", s.peek())
	}
	var (
		parent []int
		w      []float64
		n, f   []int64
		counts [4]int // elements of the last parent, w, n and f member
	)
	for more := s.open(); more; {
		key, esc, err := s.key()
		if err != nil {
			return nil, err
		}
		switch {
		case keyIs(key, esc, "parent"):
			parent, counts[0], err = wireArray[int](s, "parent", maxNodes)
		case keyIs(key, esc, "w"):
			w, counts[1], err = wireArray[float64](s, "w", maxNodes)
		case keyIs(key, esc, "n"):
			n, counts[2], err = wireArray[int64](s, "n", maxNodes)
		case keyIs(key, esc, "f"):
			f, counts[3], err = wireArray[int64](s, "f", maxNodes)
		default:
			err = s.skipValue(depth + 1)
		}
		if err != nil {
			return nil, err
		}
		if more, err = s.more(true); err != nil {
			return nil, err
		}
	}
	for k, c := range counts {
		if c > maxNodes {
			return nil, fmt.Errorf("%w: %s has %d elements, limit is %d",
				ErrTooLarge, [...]string{"parent", "w", "n", "f"}[k], c, maxNodes)
		}
	}
	nn := len(parent)
	if n == nil {
		n = make([]int64, nn)
	}
	if f == nil {
		f = make([]int64, nn)
	}
	if err := checkLengths(parent, w, n, f); err != nil {
		return nil, err
	}
	return build(parent, w, n, f)
}

// wireArray decodes the member value at the cursor: null (a nil slice) or
// an array of numbers and nulls, where a null element decodes to zero.
// Each number is lexed once and converted as encoding/json converts it
// into a T: to the nearest float64, or to an int or int64 exactly or not
// at all. It returns the element count, counted before anything is
// allocated; an array of more than maxNodes elements is validated but
// not stored.
func wireArray[T int | int64 | float64](s *scanner, name string, maxNodes int) ([]T, int, error) {
	switch s.peek() {
	case 'n':
		return nil, 0, s.literal("null")
	case '[':
	default:
		return nil, 0, fmt.Errorf("%s: cannot decode a JSON value starting with %q into an array of numbers", name, s.peek())
	}
	// Elements are numbers and nulls, which hold no bracket or comma: the
	// first ']' closes the array, and the commas before it separate its
	// elements. Anything else fails the element parse below before the
	// count could matter.
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end < 0 {
		s.i = len(s.b)
		return nil, 0, s.fail("")
	}
	count := 0
	if len(bytes.Trim(s.b[s.i+1:s.i+end], " \t\r\n")) > 0 {
		count = bytes.Count(s.b[s.i:s.i+end], []byte{','}) + 1
	}
	var vals []T
	if count <= maxNodes {
		vals = make([]T, count)
	}
	var zero T
	_, isFloat := any(zero).(float64)
	bitSize := 64
	if _, isInt := any(zero).(int); isInt {
		bitSize = strconv.IntSize
	}
	k := 0
	var num number
	for more := s.open(); more; k++ {
		var v T
		if s.peek() == 'n' {
			if err := s.literal("null"); err != nil {
				return nil, 0, err
			}
		} else {
			start := s.i
			var fail string
			if s.i, fail = lexNumber(s.b, s.i, true, &num); fail != "" {
				return nil, 0, s.fail(fail)
			}
			lit := s.b[start:s.i]
			ok := false
			if isFloat {
				var f float64
				f, ok = num.toFloat(lit)
				v = T(f)
			} else {
				var i int64
				i, ok = num.toInt(bitSize)
				v = T(i)
			}
			if !ok {
				return nil, 0, fmt.Errorf("%s: cannot decode number %s into %T", name, lit, v)
			}
		}
		if vals != nil {
			vals[k] = v
		}
		if s.peek() == ',' { // the common case, handled here without a call
			s.i++
			s.ws()
			continue
		}
		var err error
		if more, err = s.more(false); err != nil {
			return nil, 0, err
		}
	}
	return vals, count, nil
}
