package tree

import (
	"encoding/json"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// jsonNumber is encoding/json's number grammar, the reference for the
// lexer's JSON mode.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// checkNumber fails t unless the lexer plus conversion read lit as the
// references do: in JSON mode, it accepts exactly encoding/json's number
// grammar and converts as json.Unmarshal does into float64, int64 and
// int; in text mode, as strconv.ParseFloat and strconv.ParseInt do, with
// Float64bits equal and the same side failing.
func checkNumber(t *testing.T, lit string) {
	t.Helper()
	b := []byte(lit)
	var num number
	end, fail := lexNumber(b, 0, true, &num)
	if got, want := fail == "" && end == len(b), jsonNumber.MatchString(lit); got != want {
		t.Fatalf("%q: JSON lexer accepts %v (fail %q at %d), grammar says %v", lit, got, fail, end, want)
	}
	if fail == "" && end == len(b) {
		var wf float64
		werr := json.Unmarshal(b, &wf)
		f, ok := num.toFloat(b)
		if ok != (werr == nil) || ok && math.Float64bits(f) != math.Float64bits(wf) {
			t.Fatalf("%q: JSON float %v (%x, ok %v), encoding/json %v (%x, %v)", lit, f, math.Float64bits(f), ok, wf, math.Float64bits(wf), werr)
		}
		var wi int64
		werr = json.Unmarshal(b, &wi)
		if i, ok := num.toInt(64); ok != (werr == nil) || ok && i != wi {
			t.Fatalf("%q: JSON int64 %d (ok %v), encoding/json %d (%v)", lit, i, ok, wi, werr)
		}
		var wn int
		werr = json.Unmarshal(b, &wn)
		if n, ok := num.toInt(strconv.IntSize); ok != (werr == nil) || ok && int(n) != wn {
			t.Fatalf("%q: JSON int %d (ok %v), encoding/json %d (%v)", lit, n, ok, wn, werr)
		}
	}

	end, fail = lexNumber(b, 0, false, &num)
	plain := fail == "" && end == len(b)
	f, err := textFloat(&num, plain, b)
	wf, werr := strconv.ParseFloat(lit, 64)
	if (err == nil) != (werr == nil) || err == nil && math.Float64bits(f) != math.Float64bits(wf) {
		t.Fatalf("%q: text float %v (%x, %v), strconv %v (%x, %v)", lit, f, math.Float64bits(f), err, wf, math.Float64bits(wf), werr)
	}
	for _, bits := range []int{strconv.IntSize, 64, 32} {
		i, err := textInt(&num, plain, b, bits)
		wi, werr := strconv.ParseInt(lit, 10, bits)
		if (err == nil) != (werr == nil) || err == nil && i != wi {
			t.Fatalf("%q: text int%d %d (%v), strconv %d (%v)", lit, bits, i, err, wi, werr)
		}
	}
}

// numberForms are literals at the edges of both grammars and of the
// exact conversion's three steps.
var numberForms = []string{
	// malformed in JSON (and some in text)
	"01", "-01", "1.", ".5", "-", "1e", "1e+", "+1",
	// valid edge forms
	"-0", "1E5", "0", "-0.0", "0e0", "0.000", "1.5e-0",
	// out of range
	"1e400", "-1e400", "1e-400", "4.9e-324", "2.4703282292062327e-324", "1.7976931348623157e308", "1.7976931348623159e308",
	// mantissas of 19 and 20 digits, with and without trailing zeros
	"1234567890123456789", "9999999999999999999", "1234567890123456780", "1000000000000000000",
	"12345678901234567891", "12345678901234567890", "10000000000000000000", "99999999999999999999",
	"0.1234567890123456789", "0.12345678901234567891", "1.2345678901234567890", "123456789012345678.90",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	// 12 digits, then 8 more: the eight-digit step must not take them
	"999999999999.99999999", "999999999999.999999995", "123456789012.3456789012345", "99999999999999999999.5",
	"2147483647", "2147483648", "-2147483648", "-2147483649",
	// just above 2^53
	"9007199254740993", "9007199254740992", "9007199254740993.0", "-9007199254740993",
	// exponents ±19, ±20, ±22 and ±23
	"1e19", "1e-19", "9007199254740993e19", "9007199254740993e-19", "9999999999999999999e19", "9999999999999999999e-19",
	"1e20", "1e-20", "9007199254740993e20", "9007199254740993e-20",
	"1e22", "1e-22", "9007199254740991e22", "9007199254740991e-22", "9007199254740993e22",
	"1e23", "1e-23", "9007199254740991e23", "9007199254740991e-23",
	// text-only forms
	"0x1p3", "inf", "-Inf", "NaN", "1_0", "Infinity", "0X1P-2", "1__0",
	// more edges
	"", "e5", "1e5e5", "1.5.5", "--1", "-+1", "1e-", "1E+5", "00", "007", "0.", "-.5", "1e00000000000000000000000001",
	"0.0000000000000000000000000000000000000001", "100000000000000000000000000000000000000000",
}

func TestNumberForms(t *testing.T) {
	for _, lit := range numberForms {
		checkNumber(t, lit)
	}
}

// TestParseNumberMatchesStrconv checks the exact conversion against
// strconv.ParseFloat, bit for bit, on over a million deterministic
// literals: shortest 'g' forms of random doubles across every exponent
// and of typical tree weights, 'e' forms with 15 to 20 significant
// digits, 'f' forms, and exact halfway points between adjacent doubles,
// which only round-half-to-even resolves.
func TestParseNumberMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randFloat := func() float64 {
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	check := func(lit string) {
		b := []byte(lit)
		var num number
		end, fail := lexNumber(b, 0, false, &num)
		f, err := textFloat(&num, fail == "" && end == len(b), b)
		want, werr := strconv.ParseFloat(lit, 64)
		if (err == nil) != (werr == nil) || err == nil && math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("%q: %v (%x, %v), strconv %v (%x, %v)", lit, f, math.Float64bits(f), err, want, math.Float64bits(want), werr)
		}
	}
	count := 0
	for k := 0; k < 40_000; k++ {
		x := randFloat()
		// A weight as the generators draw it, and a value near 2^53.
		wt := 0.5 + 9*rng.Float64()
		big53 := float64(1<<53) * (1 + rng.Float64())
		for _, v := range []float64{x, wt, big53, x / 1e300 * 1e300} {
			check(strconv.FormatFloat(v, 'g', -1, 64))
			check(strconv.FormatFloat(v, 'f', 3, 64))
			count += 2
		}
		for digits := 15; digits <= 20; digits++ {
			check(strconv.FormatFloat(wt*math.Pow(10, float64(rng.Intn(50)-25)), 'e', digits-1, 64))
			count++
		}
		check(strconv.FormatFloat(x, 'f', -1, 64))
		count++
	}
	// Halfway points: integers (2m+1)·2^(k-1) below 10^19, which the
	// product path reads with exponent 0 or after moving trailing zeros
	// into it, and (2m+1)·5^e/10^e, which the quotient path reads.
	for k := 0; k < 15_000; k++ {
		m := uint64(1)<<52 | rng.Uint64()>>12 // 53 bits
		odd := 2*m + 1                        // 54 bits: a tie between two doubles
		for shift := uint(0); shift < 10; shift++ {
			if v := odd << shift; v>>shift == odd && v < 1e19 {
				s := strconv.FormatUint(v, 10)
				check(s)
				check(s + "000e-3")
				check(s[:1] + "." + s[1:] + "e" + strconv.Itoa(len(s)-1))
				count += 3
			}
		}
		for e := 1; e <= 19; e++ {
			p := uint64pow10[e] >> e // 5^e
			// odd·5^e/10^e = odd/2^e: a tie the quotient path reads.
			if hi, v := bits.Mul64(odd, p); hi == 0 && v < 1e19 {
				check(strconv.FormatUint(v, 10) + "e-" + strconv.Itoa(e))
				count++
			}
			// (odd/5^e)·10^e = odd·2^e: a tie the product path reads.
			if odd%p == 0 {
				check(strconv.FormatUint(odd/p, 10) + "e" + strconv.Itoa(e))
				count++
			}
		}
		if k%8 == 0 {
			// A tie written exactly, however many digits it takes.
			check(exactMidpoint(math.Abs(randFloat())))
			count++
		}
	}
	if count < 1_000_000 {
		t.Fatalf("checked %d literals, want at least a million", count)
	}
	t.Logf("checked %d literals", count)
}

// exactMidpoint returns the exact decimal of the point halfway between
// the finite double x ≥ 0 and the next one up.
func exactMidpoint(x float64) string {
	mant, exp := math.Frexp(x) // x = mant·2^exp, mant in [0.5, 1)
	m := uint64(mant * (1 << 53))
	e := exp - 53
	if x == 0 || e < -1074 {
		m, e = math.Float64bits(x)&(1<<52-1), -1074 // subnormal
	}
	mid := new(big.Int).SetUint64(2*m + 1) // the midpoint is (2m+1)·2^(e-1)
	if e-1 >= 0 {
		return mid.Lsh(mid, uint(e-1)).String()
	}
	k := 1 - e // (2m+1)/2^k = (2m+1)·5^k / 10^k
	mid.Mul(mid, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(k)), nil))
	return mid.String() + "e-" + strconv.Itoa(k)
}

// FuzzParseNumber compares the lexer plus conversion with the references
// on arbitrary bytes, under both grammars (see checkNumber).
func FuzzParseNumber(f *testing.F) {
	for _, lit := range numberForms {
		f.Add(lit)
	}
	f.Add(strings.Repeat("9", 25) + "e-30")
	f.Fuzz(func(t *testing.T, lit string) {
		checkNumber(t, lit)
	})
}
