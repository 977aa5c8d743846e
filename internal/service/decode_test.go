package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"treesched/internal/tree"
)

// decodeMaxNodes is the node cap of the request-decode tests: small, so
// that trees over it are easy to write and to find by fuzzing.
const decodeMaxNodes = 8

// refTree is the reference decode of a request's tree member: the wire
// arrays through encoding/json, the node cap on every array, then the tree
// codec's own validation. The cap comes before validation because the
// byte-level decoder counts each array before allocating it, so a tree
// over the cap is too large whether or not it would be valid.
type refTree struct {
	t        *tree.Tree
	tooLarge bool
}

func (r *refTree) UnmarshalJSON(b []byte) error {
	*r = refTree{}
	var a struct {
		Parent []int
		W      []float64
		N, F   []int64
	}
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	for _, n := range []int{len(a.Parent), len(a.W), len(a.N), len(a.F)} {
		if n > decodeMaxNodes {
			r.tooLarge = true
			return nil
		}
	}
	r.t = new(tree.Tree)
	return r.t.UnmarshalJSON(b)
}

// refRequest decodes a whole request with encoding/json: the tree member
// through refTree, tree_text as a string.
type refRequest struct {
	Request
	Tree *refTree `json:"tree,omitempty"`
}

// refParse is the reference for Server.parse: json.Unmarshal of the whole
// request, then the tree checks as prepare made them before the tree was
// decoded during the walk (tree_text through DecodeMax), then prepare.
func refParse(s *Server, raw []byte) (Request, *job, error) {
	var rr refRequest
	if err := json.Unmarshal(raw, &rr); err != nil {
		return rr.Request, nil, badRequest("invalid request: %v", err)
	}
	req := rr.Request
	if req.TimeoutMS < 0 {
		return req, nil, badRequest("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	var t *tree.Tree
	switch {
	case rr.Tree != nil && req.TreeText != "":
		return req, nil, badRequest("both trees")
	case rr.Tree != nil && rr.Tree.tooLarge:
		return req, nil, &requestError{status: http.StatusRequestEntityTooLarge, msg: "tree too large"}
	case rr.Tree != nil:
		t = rr.Tree.t
	case req.TreeText != "":
		var err error
		if t, err = tree.DecodeMax(strings.NewReader(req.TreeText), s.cfg.MaxNodes); err != nil {
			if errors.Is(err, tree.ErrTooLarge) {
				return req, nil, &requestError{status: http.StatusRequestEntityTooLarge, msg: err.Error()}
			}
			return req, nil, badRequest("invalid tree_text: %v", err)
		}
	default:
		return req, nil, badRequest("no tree")
	}
	if t.Len() == 0 {
		return req, nil, badRequest("tree is empty")
	}
	j, err := s.prepare(req, tree.Member{Tree: t}, false, nil)
	return req, j, err
}

// checkParseMatchesReference fails t unless Server.parse and refParse give
// raw the same outcome: the same decoded Request fields (tree members
// aside), HTTP status and errors_total kind, and on success the same tree
// hash, node count, cache key and options. raw is parsed twice: a success
// teaches the alias cache the tree member's bytes, so the second parse
// must take the alias and skip the decode, and still match. It returns
// the status.
func checkParseMatchesReference(t *testing.T, s *Server, raw []byte) int {
	t.Helper()
	wreq, wj, werr := refParse(s, raw)
	wstatus, wkind := http.StatusOK, ""
	if werr != nil {
		wstatus, wkind = errorClass(werr)
	}
	wreq.Tree, wreq.TreeText = nil, ""
	for _, pass := range []string{"first parse", "second parse"} {
		req, j, err := s.parse(raw, false, nil)
		status, kind := http.StatusOK, ""
		if err != nil {
			status, kind = errorClass(err)
		}
		if status != wstatus || kind != wkind {
			t.Fatalf("%q (%s): status %d kind %q (%v), reference %d %q (%v)", raw, pass, status, kind, err, wstatus, wkind, werr)
		}
		req.Tree, req.TreeText = nil, ""
		if !reflect.DeepEqual(req, wreq) {
			t.Fatalf("%q (%s): decoded request %+v, reference %+v", raw, pass, req, wreq)
		}
		if err != nil {
			continue
		}
		if j.treeHash != wj.treeHash || j.nodes != wj.nodes || j.cacheKey != wj.cacheKey || !reflect.DeepEqual(j.opts, wj.opts) {
			t.Fatalf("%q (%s): job differs from the reference", raw, pass)
		}
		if pass == "second parse" && j.tree != nil {
			t.Fatalf("%q: the second parse decoded the tree again instead of taking the alias", raw)
		}
	}
	return wstatus
}

func newDecodeServer(tb testing.TB) *Server {
	s := New(Config{Workers: 1, MaxNodes: decodeMaxNodes})
	tb.Cleanup(s.Close)
	return s
}

// TestParseMatchesReference pins the split request decode against
// encoding/json plus the checks prepare made, case by case.
func TestParseMatchesReference(t *testing.T) {
	s := newDecodeServer(t)
	big := `{"parent":[-1,0,0,0,0,0,0,0,0],"w":[1,1,1,1,1,1,1,1,1]}`
	bigText := `"9\n0 -1 1 0 0\n1 0 1 0 0\n2 0 1 0 0\n3 0 1 0 0\n4 0 1 0 0\n5 0 1 0 0\n6 0 1 0 0\n7 0 1 0 0\n8 0 1 0 0\n"`
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"json tree", `{"id":"a","tree":{"parent":[-1,0],"w":[1,2]},"p":2}`, 200},
		{"text tree", `{"id":"a","tree_text":"2\n0 -1 1 0 1\n1 0 1 0 1\n","p":2}`, 200},
		{"key order and white space", " {\n\t\"p\" : 2 ,\"tree\"\r\n:\t{ \"w\" : [ 1 , 2 ] , \"parent\" : [ -1 , 0 ] } , \"id\":\"a\" }\n", 200},
		{"case-variant keys", `{"ID":"a","TREE":{"PaReNt":[-1,0],"W":[1,2]},"P":2}`, 200},
		{"case-variant tree_text", `{"Tree_Text":"1\n0 -1 1 0 1","p":2}`, 200},
		{"escaped keys", `{"tre\u0065":{"p\u0061rent":[-1,0],"\u0077":[1,2]},"p":2}`, 200},
		{"escaped tree_text key", `{"tree\u005ftext":"1\n0 -1 1 0 1","p":2}`, 200},
		{"duplicate tree, last wins", `{"tree":{"parent":[-1],"w":[1]},"tree":{"parent":[-1,0],"w":[1,2]},"p":2}`, 200},
		{"duplicate tree_text, last wins", `{"tree_text":"junk","tree_text":"1\n0 -1 1 0 1","p":2}`, 200},
		{"duplicate arrays, last wins", `{"tree":{"parent":[-1,0,0],"parent":[-1,0],"w":[1,2]},"p":2}`, 200},
		{"null tree clears it", `{"tree":{"parent":[-1],"w":[1]},"tree":null,"tree_text":"1\n0 -1 1 0 1","p":2}`, 200},
		{"null tree_text keeps it", `{"tree_text":"1\n0 -1 1 0 1","tree_text":null,"p":2}`, 200},
		{"empty tree_text clears it", `{"tree_text":"1\n0 -1 1 0 1","tree_text":"","p":2}`, 400},
		{"null members and elements", `{"tree":{"parent":[-1,0,null],"w":[1,null,2],"n":null,"f":[null,1,2]},"p":2,"machine":null}`, 200},
		{"text escapes", `{"tree_text":"2\r\n0\t-1 1 0 1\r\n1 0 1 0 \u0031\n","p":2}`, 200},
		{"text unicode escapes and spaces", `{"tree_text":"\u0032\u000a0 -1 1 0 1\u000a1\u00a00 1 0 1","p":2}`, 200},
		{"text surrogates in a comment", `{"tree_text":"# \ud83d\ude00 \ud800\n1\n0 -1 1 0 1","p":2}`, 200},
		{"unknown members", `{"tree":{"parent":[-1],"w":[1],"x":{"y":[1,"]",{}]}},"extra":[{"tree":5}],"p":2}`, 200},
		{"both trees", `{"tree":{"parent":[-1],"w":[1]},"tree_text":"1\n0 -1 1 0 1","p":2}`, 400},
		{"neither tree", `{"p":2}`, 400},
		{"top-level null", `null`, 400},
		{"top-level array", `[{"tree":{"parent":[-1],"w":[1]}}]`, 400},
		{"trailing bytes", `{"tree":{"parent":[-1],"w":[1]},"p":2} x`, 400},
		{"trailing object", `{"tree":{"parent":[-1],"w":[1]},"p":2}{}`, 400},
		{"syntax error in the tree", `{"id":"a","tree":{"parent":[-1,],"w":[1]},"p":2}`, 400},
		{"syntax error after the tree", `{"id":"a","tree":{"parent":[-1],"w":[1]},"p":2,}`, 400},
		{"bad escape in tree_text", `{"id":"a","tree_text":"1\n0 -1 1 0 1\x","p":2}`, 400},
		{"invalid tree, id before", `{"id":"a","tree":{"parent":[-1,-1],"w":[1,1]},"p":2}`, 400},
		{"invalid tree, id after", `{"tree":{"parent":[-1,-1],"w":[1,1]},"id":"a","p":2}`, 400},
		{"type error before invalid tree", `{"id":"a","p":"x","tree":{"parent":[0],"w":[1]}}`, 400},
		{"non-object tree", `{"id":"a","tree":[1],"p":2}`, 400},
		{"non-string tree_text", `{"tree_text":5,"id":"a","p":2}`, 400},
		{"fraction in parent", `{"tree":{"parent":[-1,0.5],"w":[1,1]},"p":2}`, 400},
		{"w overflow", `{"tree":{"parent":[-1],"w":[1e999]},"p":2}`, 400},
		{"bad text tree", `{"id":"a","tree_text":"2\n0 -1 1 0 1\n","p":2}`, 400},
		{"bad p with good tree", `{"id":"a","tree_text":"1\n0 -1 1 0 1","p":0}`, 400},
		{"negative timeout", `{"tree_text":"1\n0 -1 1 0 1","p":2,"timeout_ms":-1}`, 400},
		{"json tree over MaxNodes", `{"id":"a","tree":` + big + `,"p":2}`, 413},
		{"text tree over MaxNodes", `{"id":"a","tree_text":` + bigText + `,"p":2}`, 413},
		{"invalid json tree over MaxNodes", `{"tree":{"parent":[-1,-1,0,0,0,0,0,0,0],"w":[1]},"p":2}`, 413},
		{"over MaxNodes then a smaller duplicate", `{"tree":{"parent":[-1,0,0,0,0,0,0,0,0],"parent":[-1],"w":[1]},"p":2}`, 200},
		{"over MaxNodes with a type error", `{"tree":` + big + `,"p":"x"}`, 400},
		{"over MaxNodes with a syntax error", `{"tree":` + big + `,"p":2,}`, 400},
		{"over MaxNodes and both trees", `{"tree":` + big + `,"tree_text":"1\n0 -1 1 0 1","p":2}`, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkParseMatchesReference(t, s, []byte(tc.body)); got != tc.status {
				t.Errorf("status %d, want %d", got, tc.status)
			}
		})
	}
}

// TestParseDeepNesting checks that the nesting limit is encoding/json's:
// an unknown member nested to the limit decodes, one level deeper fails.
func TestParseDeepNesting(t *testing.T) {
	s := newDecodeServer(t)
	for _, depth := range []int{9998, 9999, 10000} {
		body := `{"tree_text":"1\n0 -1 1 0 1","p":2,"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
		checkParseMatchesReference(t, s, []byte(body))
		body = `{"tree":{"parent":[-1],"w":[1],"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `},"p":2}`
		checkParseMatchesReference(t, s, []byte(body))
	}
}

// numberForms are number literals at the edges of the JSON and strconv
// grammars and of the tree decoders' exact float conversion.
var numberForms = []string{
	"01", "-01", "1.", ".5", "-", "1e", "1e+", "+1", // malformed
	"-0", "1E5", // valid edge forms
	"1e400", "1e-400", "4.9e-324", // out of range
	"1234567890123456789", "1234567890123456780", "12345678901234567891", "12345678901234567800",
	"1.234567890123456789", "1.2345678901234567891", // mantissas of 19 and 20 digits
	"9007199254740993", // just above 2^53
	"9007199254740993e19", "9007199254740993e-19", "1e20", "1e-20",
	"9007199254740993e22", "9007199254740993e-22", "1e23", "1e-23",
	"0x1p3", "inf", "NaN", "1_0", // text-only forms
}

// numberBodies returns requests that carry each of numberForms once in
// each array of a JSON tree and once in each field of a text tree's node
// line.
func numberBodies() []string {
	var out []string
	for _, lit := range numberForms {
		for _, name := range []string{"parent", "w", "n", "f"} {
			arrays := map[string]string{"parent": "-1,0", "w": "1,2", "n": "0,0", "f": "1,1"}
			arrays[name] = arrays[name][:strings.IndexByte(arrays[name], ',')+1] + lit
			out = append(out, fmt.Sprintf(`{"tree":{"parent":[%s],"w":[%s],"n":[%s],"f":[%s]},"p":2}`,
				arrays["parent"], arrays["w"], arrays["n"], arrays["f"]))
		}
		for k := 0; k < 5; k++ {
			fields := strings.Fields("1 0 1 0 1")
			fields[k] = lit
			out = append(out, `{"tree_text":"2\n0 -1 1 0 1\n`+strings.Join(fields, " ")+`\n","p":2}`)
		}
	}
	return out
}

// FuzzRequestDecode checks the split request decode against encoding/json
// plus prepare on arbitrary bodies, cold and through the alias cache: the
// same Request fields, tree hash, HTTP status and errors_total kind.
func FuzzRequestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"id":"a","tree":{"parent":[-1,0],"w":[1,2]},"p":2}`,
		`{"id":"a","tree_text":"2\n0 -1 1 0 1\n1 0 1 0 1\n","p":2,"heuristics":["Sequential"]}`,
		`{"TREE":{"PARENT":[-1,0],"w":[1,2],"n":null},"tree":null,"Tree_Text":"1\n0 -1 1 0 1","p":2}`,
		`{"tre\u0065":{"p\u0061rent":[-1,0],"w":[1,2]},"p":2,"objective":"min_memory"}`,
		`{"tree":{"parent":[-1,0,0,0,0,0,0,0,0],"w":[1]},"p":2}`,
		`{"tree":5,"id":"a"}`,
		`{"tree_text":"\u0031\r\n0\t-1 1 0 1","machine":"2x1.0+2x0.5"}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	for _, body := range numberBodies() {
		f.Add([]byte(body))
	}
	s := newDecodeServer(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkParseMatchesReference(t, s, raw)
	})
}

// TestParseErrorEchoesID checks that an id decoded before a failing tree
// member is echoed in the error response, as encoding/json would have set
// it.
func TestParseErrorEchoesID(t *testing.T) {
	s := newDecodeServer(t)
	for _, body := range []string{
		`{"id":"a","tree":{"parent":[-1,-1],"w":[1,1]}}`,
		`{"id":"a","tree":[1]}`,
	} {
		rec := post(t, s.Handler(), "/v1/schedule", []byte(body))
		resp := decodeResponse(t, rec)
		if rec.Code != http.StatusBadRequest || resp.ID != "a" {
			t.Errorf("%s: status %d id %q, want 400 and id \"a\"", body, rec.Code, resp.ID)
		}
	}
}
