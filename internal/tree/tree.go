// Package tree implements the in-tree task-graph model of Marchal, Sinnen
// and Vivien, "Scheduling tree-shaped task graphs to minimize memory and
// makespan" (INRIA RR-8082, IPDPS 2013).
//
// A tree has n nodes numbered 0..n-1. Each node i carries a processing time
// w_i (float64), an execution-file size n_i and an output-file size f_i
// (both int64, exact arithmetic). Edges point from child to parent: a node
// can execute only after all of its children have executed, and the output
// file of every child must be resident in memory until the parent completes.
package tree

import (
	"errors"
	"fmt"
)

// None marks the absence of a node (the parent of the root).
const None = -1

// Tree is an immutable in-tree task graph. Construct one with New or with a
// Builder; the zero value is an empty tree.
type Tree struct {
	parent   []int
	children [][]int
	order    []int // one fixed topological order (children before parents)
	w        []float64
	n        []int64
	f        []int64
	root     int
}

// ErrInvalidTree is wrapped by all construction errors of this package.
var ErrInvalidTree = errors.New("tree: invalid tree")

// New builds a tree from a parent vector. parent[i] is the parent of node i,
// or None for the (unique) root. w, n and f give the node weights; they must
// all have the same length as parent. n and f entries must be non-negative
// and w entries must not be negative or NaN. The tree keeps copies of the
// slices.
func New(parent []int, w []float64, n, f []int64) (*Tree, error) {
	if err := checkLengths(parent, w, n, f); err != nil {
		return nil, err
	}
	return build(append([]int(nil), parent...), append([]float64(nil), w...),
		append([]int64(nil), n...), append([]int64(nil), f...))
}

func checkLengths(parent []int, w []float64, n, f []int64) error {
	if nn := len(parent); len(w) != nn || len(n) != nn || len(f) != nn {
		return fmt.Errorf("%w: mismatched slice lengths (parent=%d w=%d n=%d f=%d)",
			ErrInvalidTree, nn, len(w), len(n), len(f))
	}
	return nil
}

// build validates equal-length vectors with New's rules and makes a tree
// that owns them: the decoders hand over freshly allocated arrays, so no
// copy is needed.
func build(parent []int, w []float64, n, f []int64) (*Tree, error) {
	nn := len(parent)
	t := &Tree{parent: parent, w: w, n: n, f: f, root: None}
	for i := 0; i < nn; i++ {
		if t.w[i] < 0 || t.w[i] != t.w[i] {
			return nil, fmt.Errorf("%w: node %d has invalid processing time %v", ErrInvalidTree, i, t.w[i])
		}
		if t.n[i] < 0 || t.f[i] < 0 {
			return nil, fmt.Errorf("%w: node %d has negative file size", ErrInvalidTree, i)
		}
		switch p := t.parent[i]; {
		case p == None:
			if t.root != None {
				return nil, fmt.Errorf("%w: two roots (%d and %d)", ErrInvalidTree, t.root, i)
			}
			t.root = i
		case p < 0 || p >= nn:
			return nil, fmt.Errorf("%w: node %d has out-of-range parent %d", ErrInvalidTree, i, p)
		case p == i:
			return nil, fmt.Errorf("%w: node %d is its own parent", ErrInvalidTree, i)
		}
	}
	if nn > 0 && t.root == None {
		return nil, fmt.Errorf("%w: no root", ErrInvalidTree)
	}
	if err := t.buildChildren(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustNew is New that panics on error; for tests and literals.
func MustNew(parent []int, w []float64, n, f []int64) *Tree {
	t, err := New(parent, w, n, f)
	if err != nil {
		panic(err)
	}
	return t
}

// buildChildren derives the children lists and a topological order, and
// verifies that the parent vector is acyclic (i.e. an actual tree). The
// lists list children in index order and share one backing array, each
// capped at its length so that no list can grow into its neighbour.
func (t *Tree) buildChildren() error {
	nn := len(t.parent)
	// next[p] counts, then offsets, then fills p's block of kids; after
	// the fill it is where p's block ends.
	next := make([]int, nn+1)
	for _, p := range t.parent {
		if p != None {
			next[p+1]++
		}
	}
	for i := 1; i <= nn; i++ {
		next[i] += next[i-1]
	}
	kids := make([]int, next[nn])
	for i, p := range t.parent {
		if p != None {
			kids[next[p]] = i
			next[p]++
		}
	}
	t.children = make([][]int, nn)
	lo := 0
	for p := 0; p < nn; p++ {
		if hi := next[p]; hi > lo {
			t.children[p] = kids[lo:hi:hi]
			lo = hi
		}
	}
	// Topological order by iterative DFS from the root: the reverse
	// preorder puts children first. Every non-root node is in exactly one
	// children list, so the DFS reaches each node at most once, and a cycle
	// shows as nodes it never reaches.
	t.order = make([]int, nn)
	if nn == 0 {
		return nil
	}
	stack := make([]int, 0, 64)
	stack = append(stack, t.root)
	k := nn
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k--
		t.order[k] = v
		stack = append(stack, t.children[v]...)
	}
	if k != 0 {
		return fmt.Errorf("%w: %d of %d nodes unreachable from root (cycle?)", ErrInvalidTree, k, nn)
	}
	return nil
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.parent) }

// Root returns the root node, or None for an empty tree.
func (t *Tree) Root() int {
	if len(t.parent) == 0 {
		return None
	}
	return t.root
}

// Parent returns the parent of i, or None if i is the root.
func (t *Tree) Parent(i int) int { return t.parent[i] }

// Children returns the children of i. The returned slice is owned by the
// tree and must not be modified.
func (t *Tree) Children(i int) []int { return t.children[i] }

// NumChildren returns the number of children of i.
func (t *Tree) NumChildren(i int) int { return len(t.children[i]) }

// IsLeaf reports whether i has no children.
func (t *Tree) IsLeaf(i int) bool { return len(t.children[i]) == 0 }

// W returns the processing time of i.
func (t *Tree) W(i int) float64 { return t.w[i] }

// N returns the execution-file size of i.
func (t *Tree) N(i int) int64 { return t.n[i] }

// F returns the output-file size of i.
func (t *Tree) F(i int) int64 { return t.f[i] }

// InSize returns the total size of the input files of i
// (the sum of its children's output files).
func (t *Tree) InSize(i int) int64 {
	var s int64
	for _, c := range t.children[i] {
		s += t.f[c]
	}
	return s
}

// ProcFootprint returns the memory needed while i executes:
// sum of input files + execution file + output file (paper §3.1).
func (t *Tree) ProcFootprint(i int) int64 { return t.InSize(i) + t.n[i] + t.f[i] }

// TopOrder returns a fixed topological order of the nodes (every node
// appears after all of its descendants). It is a postorder that visits
// children in index order: each subtree's nodes are contiguous and end at
// its root, and the traversal package relies on that. The slice is owned
// by the tree and must not be modified.
func (t *Tree) TopOrder() []int { return t.order }

// TotalW returns the sum of all processing times.
func (t *Tree) TotalW() float64 {
	var s float64
	for _, x := range t.w {
		s += x
	}
	return s
}

// MaxW returns the largest processing time, or 0 for an empty tree.
func (t *Tree) MaxW() float64 {
	var m float64
	for _, x := range t.w {
		if x > m {
			m = x
		}
	}
	return m
}

// MaxF returns the largest output-file size, or 0 for an empty tree.
func (t *Tree) MaxF() int64 {
	var m int64
	for _, x := range t.f {
		if x > m {
			m = x
		}
	}
	return m
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	return MustNew(t.parent, t.w, t.n, t.f)
}

// String summarizes the tree.
func (t *Tree) String() string {
	return fmt.Sprintf("tree{n=%d root=%d leaves=%d depth=%d}", t.Len(), t.Root(), t.NumLeaves(), t.Height())
}

// NumLeaves returns the number of leaf nodes.
func (t *Tree) NumLeaves() int {
	c := 0
	for i := range t.parent {
		if t.IsLeaf(i) {
			c++
		}
	}
	return c
}
