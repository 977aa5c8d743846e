package tree

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// TestKeyLettersHaveNoNonASCIIFoldPartner backs keyIs's ASCII folding:
// encoding/json matches keys under Unicode case folding, which agrees with
// ASCII folding as long as no letter of a matched name folds to a
// non-ASCII rune (k, for one, folds to the Kelvin sign).
func TestKeyLettersHaveNoNonASCIIFoldPartner(t *testing.T) {
	partner := func(c rune) bool {
		for r := unicode.SimpleFold(c); r != c; r = unicode.SimpleFold(r) {
			if r >= utf8.RuneSelf {
				return true
			}
		}
		return false
	}
	if !partner('k') {
		t.Fatal("the check misses the Kelvin sign")
	}
	for _, name := range []string{"parent", "w", "n", "f", "tree", "tree_text"} {
		for _, c := range name {
			if partner(c) {
				t.Errorf("%q in key %q has a non-ASCII fold partner", c, name)
			}
		}
	}
}

// TestChildrenShareOneBackingArray checks that the children lists, cut
// from one array, keep today's order and cannot grow into each other.
func TestChildrenShareOneBackingArray(t *testing.T) {
	tr := MustNew([]int{None, 0, 0, 1, 0, 1}, make([]float64, 6), make([]int64, 6), make([]int64, 6))
	want := [][]int{{1, 2, 4}, {3, 5}, nil, nil, nil, nil}
	for i, w := range want {
		got := tr.Children(i)
		if len(got) != len(w) || cap(got) != len(got) {
			t.Fatalf("children of %d: %v (cap %d), want %v", i, got, cap(got), w)
		}
		for k := range w {
			if got[k] != w[k] {
				t.Fatalf("children of %d: %v, want %v", i, got, w)
			}
		}
	}
}

// TestTextLineLimit checks the text form's line limit against the bufio
// reference at its boundary: a line of maxLine bytes decodes, one byte
// more fails, in both decoders.
func TestTextLineLimit(t *testing.T) {
	for _, n := range []int{maxLine, maxLine + 1} {
		in := "# " + strings.Repeat("x", n-2) + "\n1\n0 -1 1 0 1\n"
		want, wantErr := refDecodeMax(strings.NewReader(in), 1)
		got, err := DecodeMax(strings.NewReader(in), 1)
		sameOutcome(t, "long line", got, err, want, wantErr)
		if (err == nil) != (n == maxLine) {
			t.Errorf("line of %d bytes: err = %v", n, err)
		}
	}
}

// TestDecodeAllocations checks that the decoders allocate a small number
// of times per tree, whatever its size: the node arrays, the children
// backing, the topological order and a few buffers, never per node or per
// line. Only the DFS stack and the line buffer grow with the tree, by
// doubling.
func TestDecodeAllocations(t *testing.T) {
	allocs := func(n int) map[string]float64 {
		tr := RandomAttachment(rand.New(rand.NewSource(1)), n, WeightSpec{WMin: 0.5, WMax: 9, NMin: 0, NMax: 4, FMin: 1, FMax: 20})
		js, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		if err := tr.Encode(&text); err != nil {
			t.Fatal(err)
		}
		quoted, err := json.Marshal(text.String())
		if err != nil {
			t.Fatal(err)
		}
		var rest struct {
			P int `json:"p"`
		}
		out := map[string]float64{}
		for name, run := range map[string]func() error{
			"json": func() error { var d Tree; return d.UnmarshalJSON(js) },
			"text": func() error { _, err := decodeText(&textLines{b: text.Bytes()}, n); return err },
			"envelope json": func() error {
				_, err := DecodeEnvelope(append(append([]byte(`{"p":4,"tree":`), js...), '}'), n, &rest)
				return err
			},
			"envelope text": func() error {
				_, err := DecodeEnvelope(append(append([]byte(`{"p":4,"tree_text":`), quoted...), '}'), n, &rest)
				return err
			},
		} {
			if err := run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = testing.AllocsPerRun(5, func() { run() })
		}
		return out
	}
	small, large := allocs(500), allocs(5000)
	for name, n := range large {
		if n > 24 || n-small[name] > 3 {
			t.Errorf("%s: %v allocations for 5000 nodes, %v for 500", name, n, small[name])
		}
	}
}
