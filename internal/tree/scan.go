package tree

import (
	"errors"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a document nested deeper is a
// syntax error there, so it is one for the byte-level decoders too.
const maxDepth = 10000

// scanner is a cursor over JSON bytes. Its methods accept exactly the
// grammar encoding/json accepts (UTF-8 is not validated, as there), so the
// byte-level decoders reject the same documents the standard library does.
type scanner struct {
	b []byte
	i int
}

// fail reports the byte at the cursor as invalid in context, or the end
// of the input if the cursor is past it.
func (s *scanner) fail(context string) error {
	if s.i >= len(s.b) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", s.b[s.i], context, s.i)
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 at the end of the input.
func (s *scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// expect consumes c or reports the byte at the cursor.
func (s *scanner) expect(c byte, context string) error {
	if s.peek() != c {
		return s.fail(context)
	}
	s.i++
	return nil
}

// skipValue validates and skips the value at the cursor (no leading
// whitespace). depth is the nesting depth an array or object opened here
// would have; the top-level value has depth 1.
func (s *scanner) skipValue(depth int) error {
	switch c := s.peek(); {
	case c == '{' || c == '[':
		if depth > maxDepth {
			return fmt.Errorf("exceeded max depth at offset %d", s.i)
		}
		obj := c == '{'
		for more := s.open(); more; {
			if obj {
				if _, _, err := s.key(); err != nil {
					return err
				}
			}
			if err := s.skipValue(depth + 1); err != nil {
				return err
			}
			var err error
			if more, err = s.more(obj); err != nil {
				return err
			}
		}
		return nil
	case c == '"':
		_, _, err := s.str()
		return err
	case c == '-' || isDigit(c):
		var num number
		var fail string
		if s.i, fail = lexNumber(s.b, s.i, true, &num); fail != "" {
			return s.fail(fail)
		}
		return nil
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	}
	return s.fail("looking for beginning of value")
}

// open consumes the '{' or '[' at the cursor and the whitespace after it.
// It reports whether an element follows; for an empty container it
// consumes the closing byte too.
func (s *scanner) open() bool {
	closing := byte(']')
	if s.b[s.i] == '{' {
		closing = '}'
	}
	s.i++
	s.ws()
	if s.peek() == closing {
		s.i++
		return false
	}
	return true
}

// key reads an object member's key and the colon after it, leaving the
// cursor on the value. raw and escaped are as for str.
func (s *scanner) key() (raw []byte, escaped bool, err error) {
	if s.peek() != '"' {
		return nil, false, s.fail("looking for beginning of object key string")
	}
	if raw, escaped, err = s.str(); err != nil {
		return nil, false, err
	}
	s.ws()
	if err := s.expect(':', "after object key"); err != nil {
		return nil, false, err
	}
	s.ws()
	return raw, escaped, nil
}

// more consumes the whitespace and separator after an element of an
// object (obj) or array: it reports true after a comma, with the cursor on
// the next element, and false after the closing byte.
func (s *scanner) more(obj bool) (bool, error) {
	s.ws()
	switch c := s.peek(); {
	case c == ',':
		s.i++
		s.ws()
		return true, nil
	case c == '}' && obj, c == ']' && !obj:
		s.i++
		return false, nil
	case obj:
		return false, s.fail("after object key:value pair")
	}
	return false, s.fail("after array element")
}

// quotedPlain marks the bytes a JSON string body holds as themselves:
// printable ASCII other than '"' and '\\'.
var quotedPlain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str validates and skips the string at the cursor, returning its raw
// bytes between the quotes and whether they hold an escape.
func (s *scanner) str() (raw []byte, escaped bool, err error) {
	s.i++
	start := s.i
	for s.i < len(s.b) {
		if quotedPlain[s.b[s.i]] {
			s.i++
			continue
		}
		switch c := s.b[s.i]; {
		case c == '"':
			raw = s.b[start:s.i]
			s.i++
			return raw, escaped, nil
		case c == '\\':
			_, n, ok := unescapeAt(s.b, s.i)
			if !ok {
				s.i += n
				return nil, false, s.fail("in string escape code")
			}
			escaped = true
			s.i += n
		case c < 0x20:
			return nil, false, s.fail("in string literal")
		default:
			s.i++
		}
	}
	return nil, false, s.fail("")
}

// literal validates and skips the literal word (true, false or null).
func (s *scanner) literal(word string) error {
	for k := 0; k < len(word); k++ {
		if s.peek() != word[k] {
			return s.fail("in literal " + word)
		}
		s.i++
	}
	return nil
}

// unescapeAt decodes the escape sequence starting at b[i] == '\\' the way
// encoding/json does: a valid surrogate pair is one rune, and a lone
// surrogate decodes to U+FFFD. n is the number of bytes consumed; ok is
// false for an invalid escape.
func unescapeAt(b []byte, i int) (r rune, n int, ok bool) {
	if i+1 >= len(b) {
		return 0, len(b) - i, false
	}
	switch b[i+1] {
	case '"', '\\', '/':
		return rune(b[i+1]), 2, true
	case 'b':
		return '\b', 2, true
	case 'f':
		return '\f', 2, true
	case 'n':
		return '\n', 2, true
	case 'r':
		return '\r', 2, true
	case 't':
		return '\t', 2, true
	case 'u':
		r := hex4(b, i)
		if r < 0 {
			return 0, 2, false
		}
		if utf16.IsSurrogate(r) {
			if dec := utf16.DecodeRune(r, hex4(b, i+6)); dec != utf8.RuneError {
				return dec, 12, true
			}
			r = utf8.RuneError
		}
		return r, 6, true
	}
	return 0, 1, false
}

// hex4 decodes the \uXXXX escape at b[i], or returns -1.
func hex4(b []byte, i int) rune {
	if i+6 > len(b) || b[i] != '\\' || b[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// keyIs reports whether an object key (its raw bytes between the quotes)
// names the field name the way encoding/json matches keys: equal after
// unescaping, under case folding. name is lower-case ASCII, and none of
// the letters of the names decoded here has a non-ASCII fold partner (as
// k has the Kelvin sign), so ASCII folding is exact.
func keyIs(raw []byte, escaped bool, name string) bool {
	if escaped {
		var buf [16]byte
		u := buf[:0]
		for i := 0; i < len(raw) && len(u) <= len(name); {
			if raw[i] != '\\' {
				u = append(u, raw[i])
				i++
				continue
			}
			r, n, _ := unescapeAt(raw, i)
			u = utf8.AppendRune(u, r)
			i += n
		}
		raw = u
	}
	if len(raw) != len(name) {
		return false
	}
	for i, c := range raw {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}
