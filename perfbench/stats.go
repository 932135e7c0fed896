package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks, the definition numpy and Python's
// statistics.quantiles(method="inclusive") share. xs need not be sorted;
// it is not modified. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// geomean is the geometric mean of positive values; 0 when xs is empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, yielding 0 for an empty base instead of NaN, so a
// per-op counter of a workload without such ops reads 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
