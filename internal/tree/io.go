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
	b, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("tree: decode: %w", err)
	}
	return decodeText(&textLines{b: b}, maxNodes)
}

// readAll reads r to its end: into one buffer of the right size when r
// knows how much it holds (a strings.Reader, bytes.Reader or
// bytes.Buffer), else growing the buffer as io.ReadAll does.
func readAll(r io.Reader) ([]byte, error) {
	lr, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	// ReadFrom reads while MinRead bytes are free, so the end is found
	// without growing the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, lr.Len()+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// maxLine is the longest line the text format allows (excluding its
// newline): 16 MiB less one, the line a bufio.Scanner with a 16 MiB token
// limit reads, so that every input this format has accepted still decodes.
const maxLine = 1<<24 - 1

// textLines yields the lines of the text format, split at '\n' with one
// trailing '\r' dropped. It reads raw bytes, or, when quoted, the body of
// a JSON string: escapes are decoded and invalid UTF-8 becomes U+FFFD on
// the fly, exactly as encoding/json would unquote the string first.
// Node lines that need none of that are read in place (node).
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
	var num number
	end, fail := lexNumber(line, 0, false, &num)
	nn64, err := textInt(&num, fail == "" && end == len(line), line, strconv.IntSize)
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
	var nl nodeLine
	for k := 0; k < nn; k++ {
		src, err := l.node(&nl)
		if err != nil {
			return nil, fmt.Errorf("tree: decode: node line %d: %w", k, err)
		}
		i := nl.id
		switch {
		case nl.fields != 5:
			return nil, fmt.Errorf("tree: decode: node line %q: want 5 fields, got %d", src, nl.fields)
		case nl.bad == 0 || i < 0 || i >= nn:
			return nil, fmt.Errorf("tree: decode: bad node id %q", nl.lit(src, 0))
		case seen[i/64]&(1<<(i%64)) != 0:
			return nil, fmt.Errorf("tree: decode: duplicate node %d", i)
		case nl.bad > 0:
			return nil, fmt.Errorf("tree: decode: node %d: bad %s %q", i, fieldNames[nl.bad], nl.lit(src, nl.bad))
		}
		seen[i/64] |= 1 << (i % 64)
		parent[i], w[i], n[i], f[i] = nl.parent, nl.w, nl.n, nl.f
	}
	if err := l.finish(); err != nil {
		return nil, err
	}
	return build(parent, w, n, f)
}

// fieldNames names the fields of a node line in error messages.
var fieldNames = [5]string{"id", "parent", "w", "n", "f"}

// nodeLine is a node line of the text form as readNode read it: where
// its first five fields lie and their values, how many fields it has, and
// the first of the five that is not a valid value (-1 when none is). It
// holds no pointers, so filling it costs no write barriers.
type nodeLine struct {
	span       [5][2]int
	fields     int
	bad        int
	id, parent int
	w          float64
	n, f       int64
}

// lit returns field k of the line read from src.
func (nl *nodeLine) lit(src []byte, k int) []byte { return src[nl.span[k][0]:nl.span[k][1]] }

// node reads the next node line into nl and returns the bytes it read it
// from. It reads the line in place, with one pass of readNode, when it
// can: a line of five fields that needs no unescaping. Any other line,
// blank and comment lines included, is taken from content (unescaped,
// trimmed, its length checked) and read from there; then the bytes
// returned are that line.
func (l *textLines) node(nl *nodeLine) ([]byte, error) {
	if !l.done {
		end, ok := readNode(l.b, l.i, l.quoted, nl)
		if ok && nl.fields == 5 && end-l.i <= maxLine {
			l.i = end + 1 // past the '\n' or the closing quote
			switch {
			case end == len(l.b):
				l.i, l.done = end, true
			case l.quoted && l.b[end] == '\\':
				l.i++ // a `\n` escape is two bytes
			case l.quoted:
				l.done = true
			}
			return l.b, nil
		}
	}
	line, err := l.content()
	if err != nil {
		return nil, err
	}
	readNode(line, 0, false, nl)
	return line, nil
}

// readNode reads the node line that starts at b[i] into nl, converting
// each field as the cursor reaches it, and returns where the line ends.
// Fields are separated by white space as strings.Fields separates them.
// A raw line ends at '\n' or at the end of b. A quoted line is the body
// of a JSON string read in place: it ends at a `\n` escape or at the
// closing quote, and readNode reports false, for the line to be
// unescaped and read raw, at any byte that does not stand for itself
// there (another escape, a control or non-ASCII byte) and at any field
// beyond plain decimal. It also reports false for a comment line, which
// content skips.
func readNode(b []byte, i int, quoted bool, nl *nodeLine) (end int, ok bool) {
	nl.fields, nl.bad = 0, -1
	var num number
	ends := &fieldEnd[0]
	if quoted {
		ends = &fieldEnd[1]
	}
	for {
		for i < len(b) {
			if c := b[i]; c == ' ' || !quoted && c < utf8.RuneSelf && c != '\n' && asciiSpace[c] {
				i++
				continue
			} else if c < utf8.RuneSelf || quoted {
				break
			}
			r, n := utf8.DecodeRune(b[i:])
			if !unicode.IsSpace(r) {
				break
			}
			i += n
		}
		switch {
		case i == len(b):
			return i, !quoted
		case quoted && (b[i] == '"' || b[i] == '\\' && i+1 < len(b) && b[i+1] == 'n'), !quoted && b[i] == '\n':
			return i, true
		case b[i] == '#' && nl.fields == 0:
			return i, false
		}
		start := i
		e, fail := lexNumber(b, i, false, &num)
		plain := fail == "" && (e == len(b) || ends[b[e]])
		if !plain {
			if quoted {
				return e, false
			}
			e = skip(b, start, false)
		}
		i = e
		k := nl.fields
		nl.fields++
		if k >= len(nl.span) || nl.bad >= 0 {
			continue
		}
		nl.span[k] = [2]int{start, e}
		if k == 2 {
			var err error
			if nl.w, err = textFloat(&num, plain, b[start:e]); err != nil {
				nl.bad = k
			}
			continue
		}
		bitSize := 64
		if k < 2 {
			bitSize = strconv.IntSize
		}
		v, ok := num.toInt(bitSize)
		if !plain || !ok {
			var err error
			if v, err = textInt(&num, plain, b[start:e], bitSize); err != nil {
				nl.bad = k
			}
		}
		switch k {
		case 0:
			nl.id = int(v)
		case 1:
			nl.parent = int(v)
		case 3:
			nl.n = v
		case 4:
			nl.f = v
		}
	}
}

// fieldEnd marks the bytes that may follow a plain decimal field: raw
// (white space), and quoted (a space, a `\n` escape or the closing quote;
// an escape other than `\n` stops readNode at the next field).
var fieldEnd = [2][256]bool{
	{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true},
	{' ': true, '\\': true, '"': true},
}

// textInt and textFloat convert a field of the text form as
// strconv.ParseInt(lit, 10, bitSize) and strconv.ParseFloat(lit, 64) do.
// A plain field, one the lexer read whole, converts from its lexed num;
// any other, and any that fails to, goes to strconv, which decides.
func textInt(num *number, plain bool, lit []byte, bitSize int) (int64, error) {
	if plain {
		if v, ok := num.toInt(bitSize); ok {
			return v, nil
		}
	}
	return strconv.ParseInt(string(lit), 10, bitSize)
}

func textFloat(num *number, plain bool, lit []byte) (float64, error) {
	if plain {
		if v, ok := num.toFloat(lit); ok {
			return v, nil
		}
	}
	return strconv.ParseFloat(string(lit), 64)
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
