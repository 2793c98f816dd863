package grid

import (
	"math"
	"testing"

	"lbmib/internal/ibm"
)

// Reaches agrees with the points of the stencil ibm.Stencil.Compute
// builds, along every axis of lengths 24, 12 and 3, for every box on the
// axis: the window meets the box exactly when one of its wrapped
// coordinates lies inside. The positions include windows that straddle
// the periodic seam, span the whole of a short axis, and — from the
// saturated floor of a huge or non-finite position — overflow int, which
// leaves their coordinates non-consecutive mod 24 and mod 12.
func TestReachesMatchesStencilPoints(t *testing.T) {
	c := New(24, 12, 3).Coupling
	xs := []float64{math.MinInt64, math.MaxInt64, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 2e6 + 0.5, -2e6 - 0.25}
	for x := -30.0; x <= 30; x += 0.75 {
		xs = append(xs, x)
	}
	whole := c.Whole()
	for a := range whole.Hi {
		n := whole.Hi[a]
		for lo := 0; lo < n; lo++ {
			for hi := lo + 1; hi <= n; hi++ {
				b := whole
				b.Lo[a], b.Hi[a] = lo, hi
				for _, xa := range xs {
					var x [3]float64
					x[a] = xa
					var st ibm.Stencil
					st.Compute(x)
					want := false
					for i := 0; i < ibm.SupportWidth; i++ {
						if p := wrap(st.Base[a]+i, n); p >= lo && p < hi {
							want = true
						}
					}
					if got := c.Reaches(x, &b); got != want {
						t.Fatalf("axis %d (n = %d), box [%d, %d), x = %v: Reaches = %v, stencil points say %v", a, n, lo, hi, xa, got, want)
					}
				}
			}
		}
	}
}
