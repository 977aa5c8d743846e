package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{}, 0.99, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 4, 4, 4}, 0.5, 4},
		{[]float64{1, 2, 2, 2, 9}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 0.9, 9},
		{[]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 0, 1},
	} {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7, 7, 7, 7}, 7},
		{[]float64{1, 9, 9, 1}, 5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0, -1}, 0},
		{[]float64{2, 2, 2}, 2},
		{[]float64{1, 4}, 2},
		{[]float64{1, 4, 0}, 2},
	} {
		if got := geomean(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("geomean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean(nil) = %g", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %g", got)
	}
}
