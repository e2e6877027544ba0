package main

import (
	"math"
	"slices"
	"sort"
)

// minTailSamples is how many samples must lie beyond a percentile before it
// is reported: with fewer, the figure is one or two outliers, not a tail.
const minTailSamples = 10

// supportsPercentile reports whether n samples leave at least
// minTailSamples beyond the p-quantile (p in 0..1): p95 needs 200 samples,
// p99 needs 1000.
func supportsPercentile(n int, p float64) bool {
	return float64(n)*(1-p) >= minTailSamples-1e-9
}

// percentile returns the p-quantile (p in 0..1) of an ascending slice by
// linear interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// supportedPercentile returns the p-quantile when the sample count supports
// it and 0 otherwise, so an unsupported tail never reads as a measurement.
func supportedPercentile(sorted []float64, p float64) float64 {
	if !supportsPercentile(len(sorted), p) {
		return 0
	}
	return percentile(sorted, p)
}

// tailPercentile returns the highest of p99, p95, p90 and p50 the sample
// count supports, with the quantile it chose.
func tailPercentile(sorted []float64) (p, value float64) {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if supportsPercentile(len(sorted), q) {
			return q, percentile(sorted, q)
		}
	}
	return 0.5, percentile(sorted, 0.5)
}

// sortedCopy returns xs ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the middle two for an even
// count); 0 for an empty slice. A metric's value is the median of its slice
// values, so one disturbed slice does not move it.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 0.5)
}

// trimmedMean is the mean of xs without its highest share top (0..1); 0 for
// an empty slice.
func trimmedMean(xs []float64, top float64) float64 {
	s := sortedCopy(xs)
	s = s[:len(s)-int(float64(len(s))*top)]
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// spread is (max − min) / median of xs: how far the slices of one run
// disagree. 0 when fewer than two values or a zero median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	m := percentile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / m
}

// highest and lowest return the largest and smallest of xs; 0 for none.
func highest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

func lowest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}
