package tree

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// aliasMap is an alias lookup backed by a map, filled the way the service
// fills its alias cache: with the key of a member that decoded.
type aliasMap map[AliasKey]Alias

func (a aliasMap) lookup(k AliasKey) (Alias, bool) {
	v, ok := a[k]
	return v, ok
}

// learn decodes body through the lookup and remembers its member's key if
// the member decoded.
func (a aliasMap) learn(t *testing.T, body string) {
	t.Helper()
	var rest struct{}
	c, err := DecodeEnvelopeAliased([]byte(body), 100, &rest, a.lookup)
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	m, err := c.Member()
	if err != nil || m.Tree == nil || m.Key == (AliasKey{}) {
		t.Fatalf("%s: member %+v, %v; want a decoded, keyed tree", body, m, err)
	}
	a[m.Key] = Alias{Hash: m.Tree.CanonicalHash(), Nodes: m.Tree.Len()}
}

// TestDecodeEnvelopeAliased checks that an alias hit stands in for a
// member's decode and nothing else: the per-member rules (both, neither,
// last wins, null and empty members) apply to hits as to decodes, the
// members around a hit still decode, only the member's exact bytes in the
// same form hit, and a hit over the node cap decodes to fail as too large.
func TestDecodeEnvelopeAliased(t *testing.T) {
	const (
		a      = `{"parent":[-1,0],"w":[1,2]}`
		b      = `{"parent":[-1],"w":[1]}`
		text   = `"2\n0 -1 1 0 1\n1 0 1 0 1"`
		odd    = `{"parent":[-1],"w":[1],"x":["}\"]",{"y":"\\"},"\\\"{"]}`
		spread = `{"parent":[-1,0], "w":[1,2]}`
	)
	known := aliasMap{}
	for _, body := range []string{`{"tree":` + a + `}`, `{"tree_text":` + text + `}`, `{"tree":` + odd + `}`} {
		known.learn(t, body)
	}
	// hashOf decodes a member value the plain way: a JSON tree, or a
	// JSON string holding a text tree.
	hashOf := func(value string) string {
		var text string
		if json.Unmarshal([]byte(value), &text) != nil {
			var tr Tree
			if err := json.Unmarshal([]byte(value), &tr); err != nil {
				t.Fatal(err)
			}
			return tr.CanonicalHash()
		}
		tr, err := DecodeMax(strings.NewReader(text), 100)
		if err != nil {
			t.Fatal(err)
		}
		return tr.CanonicalHash()
	}
	for _, tc := range []struct {
		name, body string
		maxNodes   int    // the node cap; 0 means 100
		hit        bool   // the member's alias hit
		from       string // the value the member's tree (or alias) comes from
		wantErr    string
	}{
		{name: "hit", body: `{"id":"x","tree":` + a + `,"p":2}`, hit: true, from: a},
		{name: "hit with white space around the value", body: "{ \"tree\" :\n" + a + " }", hit: true, from: a},
		{name: "hit under a case-variant key", body: `{"TrEe":` + a + `}`, hit: true, from: a},
		{name: "text hit", body: `{"tree_text":` + text + `,"p":2}`, hit: true, from: text},
		{name: "hit on brackets and escapes inside strings", body: `{"tree":` + odd + `,"id":"y"}`, hit: true, from: odd},
		{name: "other bytes, same tree", body: `{"tree":` + spread + `}`, from: a},
		{name: "unknown tree", body: `{"tree":` + b + `}`, from: b},
		{name: "both members", body: `{"tree":` + a + `,"tree_text":` + text + `}`, wantErr: "got both"},
		{name: "hit then decode, last wins", body: `{"tree":` + a + `,"tree":` + b + `}`, from: b},
		{name: "decode then hit, last wins", body: `{"tree":` + b + `,"tree":` + a + `}`, hit: true, from: a},
		{name: "null clears a hit", body: `{"tree":` + a + `,"tree":null,"tree_text":` + text + `}`, hit: true, from: text},
		{name: "empty string clears a hit", body: `{"tree_text":` + text + `,"tree_text":""}`, wantErr: "required"},
		{name: "hit over the node cap", body: `{"tree":` + a + `}`, maxNodes: 1, wantErr: "too large"},
		{name: "text hit over the node cap", body: `{"tree_text":` + text + `}`, maxNodes: 1, wantErr: "too large"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			maxNodes := tc.maxNodes
			if maxNodes == 0 {
				maxNodes = 100
			}
			var rest struct {
				ID string
				P  int
			}
			c, err := DecodeEnvelopeAliased([]byte(tc.body), maxNodes, &rest, known.lookup)
			if err != nil {
				t.Fatal(err)
			}
			m, err := c.Member()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("member %+v, error %v; want an error containing %q", m, err, tc.wantErr)
				}
				if strings.Contains(tc.wantErr, "too large") && !errors.Is(err, ErrTooLarge) {
					t.Fatalf("error %v does not wrap ErrTooLarge", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if m.Key == (AliasKey{}) {
				t.Error("member has no key")
			}
			want := hashOf(tc.from)
			switch {
			case tc.hit && (m.Tree != nil || m.Alias.Hash != want):
				t.Fatalf("member %+v, want an alias hit for %s", m, tc.from)
			case !tc.hit && (m.Tree == nil || m.Tree.CanonicalHash() != want):
				t.Fatalf("member %+v, want %s decoded", m, tc.from)
			}
			if strings.Contains(tc.body, `"id"`) && rest.ID == "" || strings.Contains(tc.body, `"p"`) && rest.P != 2 {
				t.Errorf("members around the tree decoded to %+v", rest)
			}
		})
	}
}

// TestAliasKeyNamesBytes checks what a key covers: the member's value
// bytes and form, not its key spelling or the rest of the envelope. With
// no lookup, nothing is keyed.
func TestAliasKeyNamesBytes(t *testing.T) {
	const a = `{"parent":[-1,0],"w":[1,2]}`
	keyOf := func(body string, lookup AliasLookup) AliasKey {
		t.Helper()
		var rest struct{}
		c, err := DecodeEnvelopeAliased([]byte(body), 100, &rest, lookup)
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.Member()
		if err != nil {
			t.Fatal(err)
		}
		return m.Key
	}
	none := func(AliasKey) (Alias, bool) { return Alias{}, false }
	k := keyOf(`{"tree":`+a+`}`, none)
	if k == (AliasKey{}) {
		t.Fatal("no key with a lookup")
	}
	if keyOf(`{"p":3,"Tree" : `+a+`,"id":"z"}`, none) != k {
		t.Error("the key depends on the envelope around the value")
	}
	if keyOf(`{"tree":{"w":[1,2],"parent":[-1,0]}}`, none) == k {
		t.Error("other bytes of the same tree share the key")
	}
	if keyOf(`{"tree":`+a+`}`, nil) != (AliasKey{}) {
		t.Error("a member is keyed without a lookup")
	}
}

// FuzzSkim checks skim against the validating scanner: wherever a JSON
// object or string starts, and the scanner accepts it, skim finds the same
// end; a key is only ever taken over bytes skim spans.
func FuzzSkim(f *testing.F) {
	for _, seed := range []string{
		`{}`, `{"a":"}"}`, `{"a":"\\"}`, `{"a":"\\\""}`, `{"a":[1,{"b":"]"}],"c":"\"{"}`,
		`"x"`, `"a\"b"`, `"a\\\\"`, `"\"`, `{"a":1`, `"abc`, `"ab\"`, `{"a":"\\\\\"}"}x`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 || b[0] != '{' && b[0] != '"' {
			return
		}
		s := scanner{b: b}
		if s.skipValue(1) != nil {
			return
		}
		if end := skim(b, 0); end != s.i {
			t.Fatalf("%q: skim ends at %d, the scanner at %d", b, end, s.i)
		}
	})
}
