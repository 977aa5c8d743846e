package tree

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// Encode writes the tree in the textual format read by Decode:
//
//	# optional comments
//	<number of nodes>
//	<node> <parent|-1> <w> <n> <f>     (one line per node)
//
// Node lines may appear in any order.
func (t *Tree) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d\n", t.Len()); err != nil {
		return err
	}
	for i := 0; i < t.Len(); i++ {
		if _, err := fmt.Fprintf(bw, "%d %d %g %d %d\n", i, t.parent[i], t.w[i], t.n[i], t.f[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ErrTooLarge is wrapped by the decoders when a tree exceeds the caller's
// node cap: DecodeMax's declared node count, or the element count of an
// array of a JSON tree read by DecodeEnvelope.
var ErrTooLarge = errors.New("tree: too large")

// Decode parses the format produced by Encode. The input is trusted: the
// declared node count is allocated as-is. For untrusted inputs use
// DecodeMax.
func Decode(r io.Reader) (*Tree, error) { return DecodeMax(r, math.MaxInt) }

// DecodeMax is Decode with a cap on the declared node count, checked
// before any count-sized allocation so a hostile header line cannot
// demand arbitrary memory. It reads r to its end (bound the input's size
// with the reader, as for any body); lines after the last node line are
// ignored.
func DecodeMax(r io.Reader, maxNodes int) (*Tree, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("tree: decode: %w", err)
	}
	return decodeText(&textLines{b: b}, maxNodes)
}

// maxLine is the longest line the text format allows (excluding its
// newline): 16 MiB less one, the line a bufio.Scanner with a 16 MiB token
// limit reads, so that every input this format has accepted still decodes.
const maxLine = 1<<24 - 1

// textLines yields the lines of the text format, split at '\n' with one
// trailing '\r' dropped. It reads raw bytes, or, when quoted, the body of
// a JSON string: escapes are decoded and invalid UTF-8 becomes U+FFFD on
// the fly, exactly as encoding/json would unquote the string first.
type textLines struct {
	b      []byte
	i      int
	quoted bool
	done   bool   // the input (or the JSON string) is exhausted
	line   []byte // quoted mode: the current line, unescaped
}

// next returns the next line, or io.ErrUnexpectedEOF when none is left.
func (l *textLines) next() ([]byte, error) {
	if l.done {
		return nil, io.ErrUnexpectedEOF
	}
	var line []byte
	if l.quoted {
		var err error
		if line, err = l.nextQuoted(); err != nil {
			return nil, err
		}
	} else {
		rest := l.b[l.i:]
		j := bytes.IndexByte(rest, '\n')
		switch {
		case len(rest) == 0:
			l.done = true
			return nil, io.ErrUnexpectedEOF
		case j < 0:
			line, l.i, l.done = rest, len(l.b), true
		default:
			line, l.i = rest[:j], l.i+j+1
		}
	}
	if len(line) > maxLine {
		return nil, errors.New("line too long")
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// nextQuoted unescapes the JSON string body up to the next newline or the
// closing quote. A string ending in a newline has no empty last line.
func (l *textLines) nextQuoted() ([]byte, error) {
	l.line = l.line[:0]
	for {
		start := l.i
		for l.i < len(l.b) && quotedPlain[l.b[l.i]] {
			l.i++
		}
		l.line = append(l.line, l.b[start:l.i]...)
		if l.i >= len(l.b) {
			return nil, errors.New("unexpected end of JSON input")
		}
		switch c := l.b[l.i]; {
		case c == '"':
			l.i++
			l.done = true
			if len(l.line) == 0 {
				return nil, io.ErrUnexpectedEOF
			}
			return l.line, nil
		case c == '\\':
			r, n, ok := unescapeAt(l.b, l.i)
			if !ok {
				return nil, fmt.Errorf("invalid escape in JSON string at offset %d", l.i)
			}
			l.i += n
			if r == '\n' {
				return l.line, nil
			}
			l.line = utf8.AppendRune(l.line, r)
		case c < 0x20:
			return nil, fmt.Errorf("invalid character %q in string literal at offset %d", c, l.i)
		default:
			r, n := utf8.DecodeRune(l.b[l.i:])
			l.line = utf8.AppendRune(l.line, r)
			l.i += n
		}
	}
}

// finish validates and skips the rest of a quoted string after the lines
// the decoder needed.
func (l *textLines) finish() error {
	if !l.quoted || l.done {
		return nil
	}
	s := scanner{b: l.b, i: l.i - 1} // str steps over one byte, normally the opening quote
	_, _, err := s.str()
	l.i, l.done = s.i, true
	return err
}

// content returns the next line that is neither blank nor a #-comment,
// trimmed of surrounding white space.
func (l *textLines) content() ([]byte, error) {
	for {
		line, err := l.next()
		if err != nil {
			return nil, err
		}
		if line = trimSpace(line); len(line) > 0 && line[0] != '#' {
			return line, nil
		}
	}
}

// decodeText parses the text format from l: the node count, checked
// against maxNodes before anything count-sized is allocated, then that
// many node lines. The tree owns the arrays it is built from.
func decodeText(l *textLines, maxNodes int) (*Tree, error) {
	line, err := l.content()
	if err != nil {
		return nil, fmt.Errorf("tree: decode: %w", err)
	}
	nn64, err := parseInt(line, strconv.IntSize)
	if err != nil {
		return nil, fmt.Errorf("tree: decode: bad node count %q: %w", line, err)
	}
	nn := int(nn64)
	if nn < 0 {
		return nil, fmt.Errorf("tree: decode: negative node count %d", nn)
	}
	if nn > maxNodes {
		return nil, fmt.Errorf("%w: declared node count %d exceeds limit %d", ErrTooLarge, nn, maxNodes)
	}
	parent := make([]int, nn)
	w := make([]float64, nn)
	n := make([]int64, nn)
	f := make([]int64, nn)
	seen := make([]uint64, (nn+63)/64)
	var fields [5][]byte
	for k := 0; k < nn; k++ {
		line, err := l.content()
		if err != nil {
			return nil, fmt.Errorf("tree: decode: node line %d: %w", k, err)
		}
		if got := splitFields(line, &fields); got != 5 {
			return nil, fmt.Errorf("tree: decode: node line %q: want 5 fields, got %d", line, got)
		}
		i64, err := parseInt(fields[0], strconv.IntSize)
		if err != nil || i64 < 0 || i64 >= int64(nn) {
			return nil, fmt.Errorf("tree: decode: bad node id %q", fields[0])
		}
		i := int(i64)
		if seen[i/64]&(1<<(i%64)) != 0 {
			return nil, fmt.Errorf("tree: decode: duplicate node %d", i)
		}
		seen[i/64] |= 1 << (i % 64)
		p, err := parseInt(fields[1], strconv.IntSize)
		if err != nil {
			return nil, fmt.Errorf("tree: decode: node %d: bad parent %q", i, fields[1])
		}
		parent[i] = int(p)
		if w[i], err = strconv.ParseFloat(string(fields[2]), 64); err != nil {
			return nil, fmt.Errorf("tree: decode: node %d: bad w %q", i, fields[2])
		}
		if n[i], err = parseInt(fields[3], 64); err != nil {
			return nil, fmt.Errorf("tree: decode: node %d: bad n %q", i, fields[3])
		}
		if f[i], err = parseInt(fields[4], 64); err != nil {
			return nil, fmt.Errorf("tree: decode: node %d: bad f %q", i, fields[4])
		}
	}
	if err := l.finish(); err != nil {
		return nil, err
	}
	return build(parent, w, n, f)
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skip advances b from i past white space (space) or past anything else
// (!space), with white space as unicode.IsSpace defines it.
func skip(b []byte, i int, space bool) int {
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				return i
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(b[i:])
		if unicode.IsSpace(r) != space {
			return i
		}
		i += n
	}
	return i
}

// trimSpace is bytes.TrimSpace.
func trimSpace(b []byte) []byte {
	b = b[skip(b, 0, true):]
	for len(b) > 0 {
		r, n := utf8.DecodeLastRune(b)
		if r < utf8.RuneSelf && !asciiSpace[r] || r >= utf8.RuneSelf && !unicode.IsSpace(r) {
			break
		}
		b = b[:len(b)-n]
	}
	return b
}

// splitFields stores the first len(*fields) white-space separated fields
// of line (as strings.Fields splits) and returns how many fields there
// are in all.
func splitFields(line []byte, fields *[5][]byte) int {
	count := 0
	for i := skip(line, 0, true); i < len(line); i = skip(line, i, true) {
		start := i
		i = skip(line, i, false)
		if count < len(fields) {
			fields[count] = line[start:i]
		}
		count++
	}
	return count
}
