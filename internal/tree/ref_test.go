package tree

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The decoders below are the package's codecs as they were before the
// byte-level decoders replaced them: encoding/json for the JSON form, and
// bufio.Scanner with strings.Fields for the text form. They are kept as
// references: the byte-level decoders must accept exactly what they accept
// and build canonically identical trees.

// refUnmarshalJSON decodes the JSON form with encoding/json.
func refUnmarshalJSON(data []byte) (*Tree, error) {
	var tj treeJSON
	if err := json.Unmarshal(data, &tj); err != nil {
		return nil, fmt.Errorf("tree: json: %w", err)
	}
	nn := len(tj.Parent)
	if tj.N == nil {
		tj.N = make([]int64, nn)
	}
	if tj.F == nil {
		tj.F = make([]int64, nn)
	}
	return New(tj.Parent, tj.W, tj.N, tj.F)
}

// refDecodeMax decodes the text form line by line with bufio.Scanner.
func refDecodeMax(r io.Reader, maxNodes int) (*Tree, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line, err := refNextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("tree: decode: %w", err)
	}
	nn, err := strconv.Atoi(line)
	if err != nil {
		return nil, fmt.Errorf("tree: decode: bad node count %q: %w", line, err)
	}
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
	seen := make([]bool, nn)
	for k := 0; k < nn; k++ {
		line, err := refNextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("tree: decode: node line %d: %w", k, err)
		}
		fields := strings.Fields(line)
		if len(fields) != 5 {
			return nil, fmt.Errorf("tree: decode: node line %q: want 5 fields, got %d", line, len(fields))
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil || i < 0 || i >= nn {
			return nil, fmt.Errorf("tree: decode: bad node id %q", fields[0])
		}
		if seen[i] {
			return nil, fmt.Errorf("tree: decode: duplicate node %d", i)
		}
		seen[i] = true
		if parent[i], err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("tree: decode: node %d: bad parent %q", i, fields[1])
		}
		if w[i], err = strconv.ParseFloat(fields[2], 64); err != nil {
			return nil, fmt.Errorf("tree: decode: node %d: bad w %q", i, fields[2])
		}
		if n[i], err = strconv.ParseInt(fields[3], 10, 64); err != nil {
			return nil, fmt.Errorf("tree: decode: node %d: bad n %q", i, fields[3])
		}
		if f[i], err = strconv.ParseInt(fields[4], 10, 64); err != nil {
			return nil, fmt.Errorf("tree: decode: node %d: bad f %q", i, fields[4])
		}
	}
	return New(parent, w, n, f)
}

func refNextLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		return s, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
