package main

import (
	"math"
	"sort"
	"time"
)

// timed runs fn and returns the seconds it took.
func timed(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks; NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method) computes them —
// the rule the benchmark driver applies to ten runs — so -selfcheck
// judges spreads the way the driver will. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// sum adds up xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
