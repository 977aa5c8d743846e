package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Errorf("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %g, want 2.5", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75}, {-5, 1}, {200, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Errorf("Percentile(nil) != 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{2, -1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Errorf("Min/Max wrong: %g %g", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Errorf("empty Min/Max wrong")
	}
}

func TestCross(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{10, 20, 30}
	c := NewCross(xs, ys)
	if c.XMean != 2 || c.YMean != 20 {
		t.Errorf("cross means: %+v", c)
	}
	if c.XP10 > c.XMean || c.XP90 < c.XMean {
		t.Errorf("cross arms inverted: %+v", c)
	}
	if c.String() == "" {
		t.Errorf("empty String()")
	}
}

// TestQuickPercentileOrdering: percentiles are monotone in q and bounded by
// the extremes.
func TestQuickPercentileOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%50
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		qs := []float64{0, 10, 25, 50, 75, 90, 100}
		prev := math.Inf(-1)
		for _, q := range qs {
			v := Percentile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return Percentile(xs, 0) == sorted[0] && Percentile(xs, 100) == sorted[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
