package tree

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Carried is the tree a request envelope carries, as DecodeEnvelope found
// it: the outcome of the envelope's last "tree" member and of its last
// "tree_text" member.
type Carried struct {
	json, text         bool // the member is present: a tree object, a non-empty string
	jsonTree, textTree *Tree
	jsonErr, textErr   error
}

// Tree returns the carried tree. Exactly one of the two members must be
// present; if its tree failed to decode, that error is returned (it wraps
// ErrTooLarge when the tree exceeds the node cap).
func (c Carried) Tree() (*Tree, error) {
	switch {
	case c.json && c.text:
		return nil, errors.New("exactly one of tree and tree_text must be set, got both")
	case c.json:
		return c.jsonTree, c.jsonErr
	case c.text:
		return c.textTree, c.textErr
	}
	return nil, errors.New("one of tree and tree_text is required")
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
// Carried.Tree, without being validated as a tree. tree_text failures are
// reported there too, as DecodeMax would report them.
func DecodeEnvelope(data []byte, maxNodes int, v any) (Carried, error) {
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
			t, err := decodeJSON(&s, 2, maxNodes)
			if err == nil || errors.Is(err, ErrTooLarge) {
				c.json, c.jsonTree, c.jsonErr = true, t, err
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
			c.json, c.jsonTree, c.jsonErr = false, nil, nil
		case c0 == '"' && keyIs(key, esc, "tree_text"):
			if s.i+1 < len(data) && data[s.i+1] == '"' {
				s.i += 2
				c.text, c.textTree, c.textErr = false, nil, nil
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
			c.text, c.textTree, c.textErr = true, t, err
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

// jsonError prefixes a failure of the JSON tree form; tree validation
// errors already name the package.
func jsonError(err error) error {
	if errors.Is(err, ErrInvalidTree) || errors.Is(err, ErrTooLarge) {
		return err
	}
	return fmt.Errorf("tree: json: %w", err)
}
