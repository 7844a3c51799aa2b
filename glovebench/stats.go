package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; NaN for an empty slice. xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// supportedPercentile returns the highest of the candidate percentiles
// that leaves at least minBeyond samples above it out of n, or 0 when
// not even the median does. A p90 needs n >= 100 under the default rule
// of ten samples beyond.
func supportedPercentile(n, minBeyond int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		beyond := float64(n) * (1 - p/100)
		// The epsilon absorbs float error in 1 - p/100 (100 * 0.1 is
		// 9.999... in binary floating point).
		if beyond+1e-9 >= float64(minBeyond) && p > best {
			best = p
		}
	}
	return best
}
