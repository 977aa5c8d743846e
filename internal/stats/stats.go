// Package stats provides the summary statistics used by the experiment
// harness: means, percentiles and the distribution "crosses" (mean center,
// 10th–90th percentile arms) drawn in the paper's Figures 6–8.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the q-th percentile of xs (q in [0,100]) with linear
// interpolation between ranks; 0 for empty input.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 100 {
		return s[len(s)-1]
	}
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Min and Max return the extrema of xs (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Cross is the distribution marker of the paper's scatter plots: the mean
// as center with arms from the 10th to the 90th percentile on both axes.
type Cross struct {
	XMean, XP10, XP90 float64
	YMean, YP10, YP90 float64
}

// NewCross computes the cross of the paired samples (xs[i], ys[i]).
func NewCross(xs, ys []float64) Cross {
	return Cross{
		XMean: Mean(xs), XP10: Percentile(xs, 10), XP90: Percentile(xs, 90),
		YMean: Mean(ys), YP10: Percentile(ys, 10), YP90: Percentile(ys, 90),
	}
}

// String renders the cross compactly.
func (c Cross) String() string {
	return fmt.Sprintf("x: %.3f [%.3f, %.3f]  y: %.3f [%.3f, %.3f]",
		c.XMean, c.XP10, c.XP90, c.YMean, c.YP10, c.YP90)
}
