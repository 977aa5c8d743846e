package tree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// CanonicalHash returns a hex SHA-256 digest of the tree's full content:
// node count, parent vector and the three weight vectors, in node order.
// Two trees hash equally iff they have identical parent/w/n/f vectors, so
// the digest is independent of how the tree was encoded or constructed and
// is a safe key for result caches.
func (t *Tree) CanonicalHash() string {
	h := sha256.New()
	// The words go to the digest a few KiB at a time: one Write per word
	// cost more than the hashing itself.
	var buf [4096]byte
	b := buf[:0]
	put := func(x uint64) {
		if len(b) == len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	put(uint64(t.Len()))
	for _, p := range t.parent {
		put(uint64(int64(p)))
	}
	for _, w := range t.w {
		put(math.Float64bits(w))
	}
	for _, n := range t.n {
		put(uint64(n))
	}
	for _, f := range t.f {
		put(uint64(f))
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
