package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples, a p90 at least
// 100 and a median at least 20.
const minBeyond = 10

// inf is the latency of a failed or refused request: over any limit.
var inf = math.Inf(1)

// percentile returns the p-quantile (0 < p < 1) of xs by linear
// interpolation between order statistics. It refuses a percentile with
// fewer than minBeyond samples beyond it, because such a tail is one or
// two outliers rather than a measurement.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	beyond := n - int(math.Ceil(p*float64(n)))
	if n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, max(beyond, 0), minBeyond)
	}
	s := sorted(xs)
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if frac := pos - float64(lo); frac > 0 {
		return s[lo] + (s[min(lo+1, n-1)]-s[lo])*frac, nil
	}
	return s[lo], nil
}

// median returns the middle of xs (0 for none). Unlike percentile it
// accepts any sample count: it summarises a handful of repeated passes.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), so the
// spreads the compare mode prints match the ones the acceptance check
// computes. With fewer than two samples both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 0 {
			return 0, 0
		}
		return s[0], s[0]
	}
	// Python's algorithm: m = n+1, j = i*m div 4 clamped to [1, n-1],
	// then interpolate (or, for tiny n, extrapolate) by delta/4.
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// mean is the arithmetic mean of xs (0 for none). It summarises
// repeats whose spread is noise around one value, such as each pass's
// peak RSS, more steadily than the median.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// hmean is the harmonic mean of positive values (0 if any is not).
func hmean(xs []float64) float64 {
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		inv += 1 / x
	}
	if inv == 0 {
		return 0
	}
	return float64(len(xs)) / inv
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
