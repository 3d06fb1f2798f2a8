package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5, 1, 3, 2, 4}, 0.5, 3},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{10, 20}, 0.25, 12.5},
		{[]float64{7}, 0.95, 7},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

// TestSummarizeTail pins the tail rule: the reported percentile is the
// highest one with at least ten samples beyond it.
func TestSummarizeTail(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{0, 0}, {1, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		s := summarize(xs)
		if s.N != tc.n || s.Pct != tc.wantPct {
			t.Errorf("n=%d: got N=%d Pct=%v, want Pct=%v", tc.n, s.N, s.Pct, tc.wantPct)
			continue
		}
		if tc.wantPct > 0 {
			if want := quantile(xs, tc.wantPct/100); s.Value != want {
				t.Errorf("n=%d: tail value %v, want %v", tc.n, s.Value, want)
			}
			beyond := 0
			for _, x := range xs {
				if x > s.Value {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond, s.Pct)
			}
		} else if s.Value != 0 {
			t.Errorf("n=%d: tail value %v without a tail percentile", tc.n, s.Value)
		}
		if tc.n > 0 && s.P50 != median(xs) {
			t.Errorf("n=%d: P50 %v, want %v", tc.n, s.P50, median(xs))
		}
	}
}
