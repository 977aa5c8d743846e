package tree

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// sameOutcome fails t unless a byte-level decoder and its reference
// agree: both reject the input, or both accept it with canonically
// identical trees.
func sameOutcome(t *testing.T, what string, got *Tree, err error, want *Tree, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: decoder says %v, reference says %v", what, err, wantErr)
	}
	if err == nil && got.CanonicalHash() != want.CanonicalHash() {
		t.Fatalf("%s: decoder and reference built different trees", what)
	}
}

// viaEnvelope decodes value as the named member of a request envelope,
// under a node cap.
func viaEnvelope(name string, value []byte, maxNodes int) (*Tree, error) {
	body := append(append([]byte(`{"`+name+`":`), value...), '}')
	var rest struct{}
	c, err := DecodeEnvelope(body, maxNodes, &rest)
	if err != nil {
		return nil, err
	}
	return c.Tree()
}

// checkCap checks that an accepted tree decodes under a cap of exactly
// its size and is too large one below it.
func checkCap(t *testing.T, name string, value []byte, tr *Tree) {
	t.Helper()
	got, err := viaEnvelope(name, value, tr.Len())
	if err != nil || got.CanonicalHash() != tr.CanonicalHash() {
		t.Fatalf("%s under a cap of its size: %v", name, err)
	}
	if _, err := viaEnvelope(name, value, tr.Len()-1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("%s under a cap one below its size: got %v, want ErrTooLarge", name, err)
	}
}

// jsonWithNumber returns a two-node JSON tree once per array, with lit as
// that array's second element.
func jsonWithNumber(lit string) []string {
	var out []string
	for _, name := range []string{"parent", "w", "n", "f"} {
		arrays := map[string]string{"parent": "-1,0", "w": "1,2", "n": "0,0", "f": "1,1"}
		arrays[name] = arrays[name][:strings.IndexByte(arrays[name], ',')+1] + lit
		out = append(out, fmt.Sprintf(`{"parent":[%s],"w":[%s],"n":[%s],"f":[%s]}`, arrays["parent"], arrays["w"], arrays["n"], arrays["f"]))
	}
	return out
}

// textWithNumber returns a two-node text tree once per field of a node
// line, with lit as that field of the second line.
func textWithNumber(lit string) []string {
	var out []string
	for k := 0; k < 5; k++ {
		fields := strings.Fields("1 0 1 0 1")
		fields[k] = lit
		out = append(out, "2\n0 -1 1 0 1\n"+strings.Join(fields, " ")+"\n")
	}
	return out
}

// FuzzDecode hardens the text parser: arbitrary input must never panic;
// the byte-level decoder must accept exactly what the bufio reference
// accepts, both from raw bytes and from inside a JSON string (as the
// tree_text member carries it), with canonically identical trees; and
// decoded trees must re-encode to a decodable equivalent.
func FuzzDecode(f *testing.F) {
	f.Add("2\n0 -1 1 0 1\n1 0 1 0 1\n")
	f.Add("1\n0 -1 0.5 3 4\n")
	f.Add("# comment\n\n3\n2 1 1 0 1\n1 0 1 0 1\n0 -1 1 0 1\n")
	f.Add("")
	f.Add("-1\n")
	f.Add("2\n0 1 1 0 1\n1 0 1 0 1\n")                             // cycle
	f.Add("2\r\n0\t-1 1 0 1\r\n1 0\v1\f0 1")                       // CRLF, tabs, no final newline
	f.Add("\u00a02\u2003\n0 -1 1\u00850 1\n1 0 1 0 1 \u3000\n")    // Unicode white space
	f.Add("+2\n+00 -1 1e0 0 +1\n1 +0 inf 0 1\ntrailing garbage\n") // signs, zeros, Inf
	f.Add("1\n0 -1 1 0 1 6\n")                                     // six fields
	f.Add("1\n0 -1 1 0 \xff\n# \xff\xfe\n")                        // invalid UTF-8
	f.Add("2\n0 -1 1 0 1\n0 0 1 0 1\n")                            // duplicate node
	for _, lit := range numberForms {
		for _, in := range textWithNumber(lit) {
			f.Add(in)
		}
	}
	// The cap keeps a fuzzed header line from allocating gigabytes; the
	// decoders must agree on it like on everything else.
	const maxNodes = 1 << 12
	f.Fuzz(func(t *testing.T, in string) {
		want, wantErr := refDecodeMax(strings.NewReader(in), maxNodes)
		tr, err := DecodeMax(strings.NewReader(in), maxNodes)
		sameOutcome(t, "text", tr, err, want, wantErr)

		quoted, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var unquoted string
		if err := json.Unmarshal(quoted, &unquoted); err != nil {
			t.Fatal(err)
		}
		want, wantErr = refDecodeMax(strings.NewReader(unquoted), maxNodes)
		got, err := viaEnvelope("tree_text", quoted, maxNodes)
		sameOutcome(t, "tree_text", got, err, want, wantErr)
		if err == nil && got.Len() > 0 {
			checkCap(t, "tree_text", quoted, got)
		}

		if tr == nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("re-encode of decoded tree failed: %v", err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("round trip size %d != %d", back.Len(), tr.Len())
		}
	})
}

// FuzzTreeJSON hardens the JSON codec the service and the forest trace
// format ride on: arbitrary input must never panic; the byte-level decoder
// must accept exactly what the encoding/json reference accepts, with a
// canonically identical tree, and hold the node cap exactly at the tree's
// size; any input that decodes must re-encode and decode back to a
// canonically identical tree; and the textual codec's DecodeMax cap must
// hold exactly at the tree's size and reject one below it.
func FuzzTreeJSON(f *testing.F) {
	f.Add([]byte(`{"parent":[-1,0,0],"w":[1,2,3],"n":[0,1,0],"f":[1,2,3]}`))
	f.Add([]byte(`{"parent":[-1],"w":[0.5]}`)) // n and f default to zero
	f.Add([]byte(`{"parent":[2,0,-1],"w":[1,1,1],"f":[9223372036854775807,1,1]}`))
	f.Add([]byte(`{"parent":[0],"w":[1]}`)) // self-parent
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(` {"PARENT":[-1,0], "W":[1e0,-0], "x":{"y":[1,{"z":null}]}, "n":null} `)) // case, unknown, null member
	f.Add([]byte(`{"parent":[-1,0],"w":[1,2],"p\u0061rent":[-1,null],"f":[null,3]}`))      // escaped key, duplicate, null elements
	f.Add([]byte(`{"parent":[-1,0],"w":[1,2],"n":[]}`))                                    // empty n is not absent
	f.Add([]byte(`{"parent":[-1,0.0],"w":[1,2]}`))                                         // fraction in an int array
	f.Add([]byte(`{"parent":[-1],"w":[1e400]}`))                                           // float overflow
	f.Add([]byte(`{"parent":[-1],"w":[1]} x`))                                             // trailing bytes
	f.Add([]byte(`null`))
	for _, lit := range numberForms {
		for _, in := range jsonWithNumber(lit) {
			f.Add([]byte(in))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		want, wantErr := refUnmarshalJSON(in)
		var tr Tree
		err := tr.UnmarshalJSON(in)
		sameOutcome(t, "json", &tr, err, want, wantErr)
		if err != nil {
			return
		}
		if tr.Len() > 0 {
			checkCap(t, "tree", in, &tr)
		}
		b, err := json.Marshal(&tr)
		if err != nil {
			t.Fatalf("re-marshal of decoded tree failed: %v", err)
		}
		var back Tree
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("json round trip failed: %v", err)
		}
		if back.CanonicalHash() != tr.CanonicalHash() {
			t.Fatalf("json round trip changed the canonical hash")
		}
		// Cross-codec: the textual encoding must round-trip under a
		// DecodeMax cap of exactly Len, and fail one below it.
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("text encode failed: %v", err)
		}
		text := buf.Bytes()
		viaText, err := DecodeMax(bytes.NewReader(text), tr.Len())
		if err != nil {
			t.Fatalf("DecodeMax at exact size failed: %v", err)
		}
		if viaText.CanonicalHash() != tr.CanonicalHash() {
			t.Fatalf("text round trip changed the canonical hash")
		}
		if tr.Len() > 0 {
			if _, err := DecodeMax(bytes.NewReader(text), tr.Len()-1); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("DecodeMax below size: got %v, want ErrTooLarge", err)
			}
		}
	})
}

// FuzzNew hardens the structural validator: arbitrary parent vectors must
// either produce a valid tree or an error, never a panic or an invalid
// topological order.
func FuzzNew(f *testing.F) {
	f.Add([]byte{255, 0, 0})    // root + two children
	f.Add([]byte{1, 2, 3, 255}) // chain ending at a root
	f.Add([]byte{1, 0})         // 2-cycle
	f.Add([]byte{})             // empty
	f.Fuzz(func(t *testing.T, raw []byte) {
		parent := make([]int, len(raw))
		for i, b := range raw {
			if b == 255 {
				parent[i] = None
			} else {
				parent[i] = int(b) % (len(raw) + 1)
			}
		}
		w := make([]float64, len(raw))
		n := make([]int64, len(raw))
		fs := make([]int64, len(raw))
		for i := range w {
			w[i] = 1
			fs[i] = 1
		}
		tr, err := New(parent, w, n, fs)
		if err != nil {
			return
		}
		if !tr.IsTopological(tr.TopOrder()) {
			t.Fatalf("accepted tree has invalid topological order")
		}
	})
}
