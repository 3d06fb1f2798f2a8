package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two closest ranks. xs need not be sorted; it
// is not modified. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// tail is a latency summary: the sample count, the median, and the
// highest percentile that has at least ten samples beyond it.
type tail struct {
	N   int
	P50 float64
	// Pct is the reported tail percentile (0 when fewer than 20
	// samples leave no percentile with ten samples beyond it).
	Pct float64
	// Value is the latency at Pct (0 when Pct is 0).
	Value float64
}

// summarize builds the tail summary of xs. A percentile p qualifies when
// n·(1 − p/100) >= 10, so p95 needs 200 samples and p50 needs 20.
func summarize(xs []float64) tail {
	t := tail{N: len(xs)}
	if len(xs) == 0 {
		return t
	}
	t.P50 = median(xs)
	for _, p := range tailPercentiles {
		// Round before comparing: 200·(1 − 0.95) is 9.999… in floating
		// point, and 200 samples do leave ten beyond p95.
		if math.Round(float64(len(xs))*(1-p/100)*1e9)/1e9 >= 10 {
			t.Pct = p
			t.Value = quantile(xs, p/100)
			break
		}
	}
	return t
}
