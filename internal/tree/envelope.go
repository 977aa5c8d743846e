package tree

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
)

// Carried is the tree a request envelope carries, as DecodeEnvelope found
// it: the outcome of the envelope's last "tree" member and of its last
// "tree_text" member.
type Carried struct {
	json, text carriedMember
}

// carriedMember is the outcome of the last member of one form.
type carriedMember struct {
	set bool // the member is present: a tree object, a non-empty string
	m   Member
	err error
}

// Member is the tree member a request envelope carries.
type Member struct {
	// Tree is the decoded tree; nil when the member's alias hit and its
	// decode was skipped.
	Tree *Tree
	// Alias is what the lookup remembered for the member on a hit.
	Alias Alias
	// Key is the member's alias key; zero when no lookup was given.
	Key AliasKey
}

// Alias is what an alias lookup remembers of a tree member it saw
// decode: the canonical hash and the node count of the member's tree.
type Alias struct {
	Hash  string
	Nodes int
}

// AliasKey names a tree member by its bytes: the SHA-256 of the member's
// form (JSON or text) and of its raw value bytes as the envelope holds
// them. Equal keys mean equal bytes in the same form, and those decode to
// the same tree, so the key of a member that once decoded can stand for
// its tree. SHA-256 is what makes "equal keys mean equal bytes" hold
// against clients choosing their bytes: a faster unkeyed hash would let
// one client forge a collision and be answered for another's tree.
type AliasKey [sha256.Size]byte

// AliasLookup returns what it remembers for a key, if anything.
type AliasLookup func(AliasKey) (Alias, bool)

// Member returns the carried tree member. Exactly one of the two members
// must be present; if its tree failed to decode, that error is returned
// (it wraps ErrTooLarge when the tree exceeds the node cap).
func (c Carried) Member() (Member, error) {
	switch {
	case c.json.set && c.text.set:
		return Member{}, errors.New("exactly one of tree and tree_text must be set, got both")
	case c.json.set:
		return c.json.m, c.json.err
	case c.text.set:
		return c.text.m, c.text.err
	}
	return Member{}, errors.New("one of tree and tree_text is required")
}

// Tree returns the carried member's tree, as Member. An envelope decoded
// without a lookup always decodes its member, so the tree is nil exactly
// when the error is not.
func (c Carried) Tree() (*Tree, error) {
	m, err := c.Member()
	return m.Tree, err
}

// DecodeEnvelope decodes a request envelope: a JSON object that carries a
// tree in a "tree" member (the JSON form) or a "tree_text" member (the
// text form), next to other members. It walks the object once, decodes
// each tree member straight from data, and hands only the remaining
// members to encoding/json, which decodes them into v. Nothing it returns
// aliases data.
//
// The outcome is the one json.Unmarshal(data, v) gives when v's tree field
// is a *Tree and its tree_text field a string later read with DecodeMax:
// keys match case-insensitively and through escapes, the last of duplicate
// members wins, a null tree member clears the tree, and a syntax error
// anywhere leaves v untouched. A tree member that fails to decode fails the
// envelope, with v holding the members before it (encoding/json stops at
// that member); a non-object tree member, or a non-string tree_text member,
// is left to encoding/json, and fails there. The one difference: a tree
// member with an array over maxNodes elements is reported as too large by
// Carried.Member, without being validated as a tree. tree_text failures
// are reported there too, as DecodeMax would report them.
func DecodeEnvelope(data []byte, maxNodes int, v any) (Carried, error) {
	return DecodeEnvelopeAliased(data, maxNodes, v, nil)
}

// DecodeEnvelopeAliased is DecodeEnvelope with an alias lookup. Each tree
// or tree_text member is first keyed by its raw bytes (AliasKey), its end
// found from strings, escapes and brackets alone. When lookup remembers
// the key, and the tree it names has at most maxNodes nodes, that alias
// is the member's outcome and the member is not decoded; otherwise the
// member decodes as usual and its Member carries the key, so the caller
// can remember the tree once it knows the tree's hash. Outcomes are kept
// per member, so Carried.Member applies the both, neither, last-wins and
// null rules to hits and decodes alike. A nil lookup is DecodeEnvelope.
func DecodeEnvelopeAliased(data []byte, maxNodes int, v any, lookup AliasLookup) (Carried, error) {
	s := scanner{b: data}
	s.ws()
	if s.peek() != '{' {
		// Not an object: nothing to split, and encoding/json says what it is.
		return Carried{}, json.Unmarshal(data, v)
	}
	var c Carried
	rest := make([]byte, 1, 256)
	rest[0] = '{'
	var treeErr error
	prefix := 0 // len(rest) when the first failed tree member was met
	for more := s.open(); more; {
		member := s.i
		key, esc, err := s.key()
		if err != nil {
			return Carried{}, err
		}
		val := s.i
		switch c0 := s.peek(); {
		case c0 == '{' && keyIs(key, esc, "tree"):
			m, hit := s.alias(formJSON, lookup, maxNodes)
			if hit {
				c.json = carriedMember{set: true, m: m}
				break
			}
			t, err := decodeJSON(&s, 2, maxNodes)
			if err == nil || errors.Is(err, ErrTooLarge) {
				m.Tree = t
				c.json = carriedMember{set: true, m: m, err: err}
				break
			}
			s.i = val
			if serr := s.skipValue(2); serr != nil {
				return Carried{}, serr
			}
			if treeErr == nil {
				treeErr, prefix = jsonError(err), len(rest)
			}
		case c0 == 'n' && keyIs(key, esc, "tree"):
			if err := s.literal("null"); err != nil {
				return Carried{}, err
			}
			c.json = carriedMember{}
		case c0 == '"' && keyIs(key, esc, "tree_text"):
			if s.i+1 < len(data) && data[s.i+1] == '"' {
				s.i += 2
				c.text = carriedMember{}
				break
			}
			m, hit := s.alias(formText, lookup, maxNodes)
			if hit {
				c.text = carriedMember{set: true, m: m}
				break
			}
			l := textLines{b: data, i: s.i + 1, quoted: true}
			t, err := decodeText(&l, maxNodes)
			if err != nil {
				s.i = val
				if _, _, serr := s.str(); serr != nil {
					return Carried{}, serr
				}
				err = fmt.Errorf("invalid tree_text: %w", err)
			} else {
				s.i = l.i
			}
			m.Tree = t
			c.text = carriedMember{set: true, m: m, err: err}
		default:
			if err := s.skipValue(2); err != nil {
				return Carried{}, err
			}
			if len(rest) > 1 {
				rest = append(rest, ',')
			}
			rest = append(rest, data[member:s.i]...)
		}
		if more, err = s.more(true); err != nil {
			return Carried{}, err
		}
	}
	if s.ws(); s.i < len(data) {
		return Carried{}, s.fail("after top-level value")
	}
	if treeErr != nil {
		// encoding/json would have stopped at the failed tree member:
		// decode what came before it, and report the tree's failure.
		_ = json.Unmarshal(append(rest[:prefix], '}'), v)
		return Carried{}, treeErr
	}
	return c, json.Unmarshal(append(rest, '}'), v)
}

// formJSON and formText are the first bytes an AliasKey hashes: the form
// of the member, so equal bytes in the two forms never share a key.
var formJSON, formText = []byte{'j'}, []byte{'t'}

// alias keys the tree member value at the cursor, of the given form, and
// looks the key up. It reports a hit only when lookup remembers a tree of
// at most maxNodes nodes, and then moves the cursor past the value; a
// larger tree decodes as usual, to fail as too large. Without a lookup,
// or for a value that does not end (it fails to decode anyway), the
// Member is zero.
func (s *scanner) alias(form []byte, lookup AliasLookup, maxNodes int) (Member, bool) {
	if lookup == nil {
		return Member{}, false
	}
	end := skim(s.b, s.i)
	if end < 0 {
		return Member{}, false
	}
	var m Member
	h := sha256.New()
	h.Write(form)
	h.Write(s.b[s.i:end])
	h.Sum(m.Key[:0])
	a, ok := lookup(m.Key)
	if !ok || a.Nodes > maxNodes {
		return m, false
	}
	m.Alias = a
	s.i = end
	return m, true
}

// skim returns the end of the object or string that opens at b[i], found
// from strings, escapes and brackets alone, or -1 if it does not end.
// Nothing else is checked, and nothing needs to be: a key is remembered
// only for bytes that decoded, and a valid value ends where skim says.
// Between brackets and strings it steps eight bytes at a time.
func skim(b []byte, i int) int {
	if b[i] == '"' {
		return skimString(b, i)
	}
	depth := 0
	for i < len(b) {
		if i+8 <= len(b) {
			m := structural(binary.LittleEndian.Uint64(b[i:]))
			if m == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(m) / 8
		}
		switch b[i] {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		case '"':
			if i = skimString(b, i); i < 0 {
				return -1
			}
			continue
		}
		i++
	}
	return -1
}

// structural marks the high bit of each byte of the little-endian word w
// that may be a bracket or a quote; the lowest mark is exact. Setting bit
// 5 folds '[' onto '{' and ']' onto '}'; it also folds the control byte
// 0x02 onto '"', which skim then steps over.
func structural(w uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	zero := func(v uint64) uint64 { return (v - ones) &^ v & highs }
	x := w | 0x20*ones
	return zero(x^'{'*ones) | zero(x^'}'*ones) | zero(x^'"'*ones)
}

// skimString returns the end of the string that opens at b[i]: one past
// the first quote after it that no odd run of backslashes escapes.
func skimString(b []byte, i int) int {
	for j := i + 1; ; j++ {
		k := bytes.IndexByte(b[j:], '"')
		if k < 0 {
			return -1
		}
		j += k
		n := 0
		for b[j-1-n] == '\\' { // stops at b[i], the opening quote
			n++
		}
		if n%2 == 0 {
			return j + 1
		}
	}
}

// jsonError prefixes a failure of the JSON tree form; tree validation
// errors already name the package.
func jsonError(err error) error {
	if errors.Is(err, ErrInvalidTree) || errors.Is(err, ErrTooLarge) {
		return err
	}
	return fmt.Errorf("tree: json: %w", err)
}
