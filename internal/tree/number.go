package tree

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// number is a decimal literal as lexNumber read it: its value is
// ±mant·10^exp, where mant holds the literal's first maxMantDigits
// significant digits and trunc reports a nonzero digit after them.
type number struct {
	mant  uint64
	exp   int
	neg   bool
	trunc bool
	frac  bool // the literal has a fraction or an exponent part
}

// maxMantDigits is how many significant digits mant holds, as strconv
// keeps them: 10^19 < 2^64.
const maxMantDigits = 19

// lexNumber reads the decimal literal at b[i] into num and returns the
// position after it, accumulating the digits as it reads them. With json
// set the grammar is encoding/json's, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and fail, when not empty, says in encoding/json's words what breaks it
// at b[end]. Otherwise it is the plain decimal part of strconv's grammar,
// -?[0-9]+(\.[0-9]*)?([eE][+-]?[0-9]+)?, and a literal beyond it (a '+'
// sign, a leading '.', Inf, NaN, a hex float) fails, for strconv to read.
// Either way the literal ends at the first byte the grammar cannot
// extend it with; what may follow it is the caller's to check. num is
// written only when the literal is valid.
func lexNumber(b []byte, i int, json bool, num *number) (end int, fail string) {
	var (
		mant             uint64
		exp, nd          int // nd counts significant digits: leading zeros are not
		neg, trunc, frac bool
	)
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	if i < len(b) && b[i] == '0' {
		// One zero in JSON; any number of leading zeros in text.
		for i++; !json && i < len(b) && b[i] == '0'; i++ {
		}
	}
	if !json || i == start {
		for ; nd+8 <= maxMantDigits && i+8 <= len(b); i += 8 {
			x := binary.LittleEndian.Uint64(b[i:])
			if !eightDigits(x) {
				break
			}
			mant = mant*1e8 + eightDigitsValue(x)
			nd += 8
		}
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxMantDigits {
				mant = mant*10 + uint64(c)
			} else {
				exp++
				trunc = trunc || c != 0
			}
			nd++
		}
	}
	if i == start {
		return i, "in numeric literal"
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac = true
		start = i
		if nd == 0 {
			for ; i < len(b) && b[i] == '0'; i++ {
				exp--
			}
		}
		for ; nd+8 <= maxMantDigits && i+8 <= len(b); i += 8 {
			x := binary.LittleEndian.Uint64(b[i:])
			if !eightDigits(x) {
				break
			}
			mant = mant*1e8 + eightDigitsValue(x)
			nd += 8
			exp -= 8
		}
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxMantDigits {
				mant = mant*10 + uint64(c)
				exp--
			} else {
				trunc = trunc || c != 0
			}
			nd++
		}
		if json && i == start {
			return i, "after decimal point in numeric literal"
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		frac = true
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start = i
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 { // strconv's cap: any larger exponent over- or underflows
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return i, "in exponent of numeric literal"
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	// Field by field: a composite literal is built on the stack with byte
	// stores and copied out with one wide load, which stalls.
	num.mant, num.exp, num.neg, num.trunc, num.frac = mant, exp, neg, trunc, frac
	return i, ""
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// eightDigits reports whether the eight bytes of the little-endian word x
// are all decimal digits, and eightDigitsValue returns their value, the
// first byte most significant: the digit loops take eight digits at a
// time while the mantissa has room for them (from the fast_float
// library's parse_eight_digits_unrolled).
func eightDigits(x uint64) bool {
	return ((x+0x4646464646464646)|(x-0x3030303030303030))&0x8080808080808080 == 0
}

func eightDigitsValue(x uint64) uint64 {
	const mask = 0x000000FF000000FF
	x -= 0x3030303030303030
	x = x*10 + x>>8 // each 16-bit lane holds the value of its two digits
	return ((x&mask)*(100+1000000<<32) + (x>>16&mask)*(1+10000<<32)) >> 32
}

// toInt converts the literal to a bitSize-bit integer as
// strconv.ParseInt(lit, 10, bitSize) does: a fraction, an exponent or an
// overflow fails.
func (num *number) toInt(bitSize int) (int64, bool) {
	if num.frac || num.exp != 0 { // exp > 0: more than 19 digits, an overflow
		return 0, false
	}
	limit := uint64(1) << (bitSize - 1)
	if num.neg {
		if num.mant > limit {
			return 0, false
		}
		return -int64(num.mant), true
	}
	if num.mant >= limit {
		return 0, false
	}
	return int64(num.mant), true
}

// toFloat converts the literal lit, lexed as num, to the nearest float64
// (ties to even), bit for bit as strconv.ParseFloat(lit, 64) does, and
// fails where it fails (out of range). Up to 19 significant digits and a
// decimal exponent of at most 22 in size are converted exactly here (see
// exact); anything else goes to strconv.
func (num *number) toFloat(lit []byte) (float64, bool) {
	if !num.trunc {
		if f, ok := num.exact(); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// exact converts mant·10^exp with one correct rounding, or reports false
// when it cannot:
//   - Clinger's fast path: mant ≤ 2^53 and |exp| ≤ 22, so mant and 10^|exp|
//     are exact doubles and one IEEE multiply or divide rounds correctly;
//   - otherwise, for |exp| ≤ 19, the exact 128-bit product mant·10^exp,
//     or the 64-bit quotient mant/10^-exp with its remainder as the sticky
//     bit, rounded half to even to 53 bits. These values lie between
//     2^53/10^19 and 10^38, far from subnormals and overflow.
func (num *number) exact() (float64, bool) {
	m, e := num.mant, num.exp
	var f float64
	switch {
	case m <= 1<<53 && -22 <= e && e <= 22:
		f = float64(m)
		if e >= 0 {
			f *= float64pow10[e]
		} else {
			f /= float64pow10[-e]
		}
	case 0 <= e && e <= 19:
		hi, lo := bits.Mul64(m, uint64pow10[e])
		if hi == 0 {
			s := bits.LeadingZeros64(lo)
			f = roundTop64(lo<<s, false, -s)
		} else {
			s := bits.LeadingZeros64(hi)
			f = roundTop64(hi<<s|lo>>(64-s), lo<<s != 0, 64-s)
		}
	case -19 <= e && e < 0:
		// Normalize both to 64 significant bits; the quotient of x·2^64
		// (or x·2^63 when x ≥ y) by y then has exactly 64 bits.
		lm, ld := bits.LeadingZeros64(m), bits.LeadingZeros64(uint64pow10[-e])
		x, y := m<<lm, uint64pow10[-e]<<ld
		e2 := ld - lm - 64
		hi, lo := x, uint64(0)
		if x >= y {
			hi, lo = x>>1, x<<63
			e2++
		}
		q, r := bits.Div64(hi, lo, y)
		f = roundTop64(q, r != 0, e2)
	default:
		return 0, false
	}
	if num.neg {
		f = -f
	}
	return f, true
}

// roundTop64 returns q·2^e2 rounded half to even to a normal float64,
// where q has its top bit set and sticky reports nonzero bits below q's
// last one.
func roundTop64(q uint64, sticky bool, e2 int) float64 {
	const drop = 64 - 53
	const half = 1 << (drop - 1)
	m, r := q>>drop, q&(1<<drop-1)
	if r > half || r == half && (sticky || m&1 == 1) {
		m++
		if m == 1<<53 {
			m >>= 1
			e2++
		}
	}
	// m·2^(e2+drop) with m in [2^52, 2^53): the biased exponent is
	// e2+drop+52+1023, and m's top bit is implicit.
	return math.Float64frombits(uint64(e2+drop+52+1023)<<52 | m&(1<<52-1))
}

var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

var uint64pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}
