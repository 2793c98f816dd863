package grid

import (
	"math"
	"testing"
	"unsafe"

	"lbmib/internal/ibm"
)

// TestMacroLayout pins the record layout coupling_amd64.s addresses, on
// every host: 56-byte records with Vel at 0, Rho at 24 and Force at 32
// (the gather loads Vel and Rho as one 32-byte vector). The stencil's
// offsets are pinned by ibm's TestStencilLayout.
func TestMacroLayout(t *testing.T) {
	var m Macro
	got := [4]uintptr{unsafe.Sizeof(m), unsafe.Offsetof(m.Vel), unsafe.Offsetof(m.Rho), unsafe.Offsetof(m.Force)}
	if want := [4]uintptr{56, 0, 24, 32}; got != want {
		t.Fatalf("Macro's size and Vel, Rho, Force offsets are %v, want %v: the assembly bodies address the old layout", got, want)
	}
}

// SpreadNode's reach test, and for a window that reaches its
// out-of-box mask and offsets, and ResolveStencil's offsets, agree with
// the points of the stencil
// ibm.Stencil.Compute builds, along every axis of lengths 24, 12, 3 and
// 4, for every box on the axis: coordinate base+i wraps to WrapIndex's
// image, lies outside the box exactly when that image does, and the
// window meets the box exactly when one of its images lies inside. The
// positions include windows wholly inside the axis (the in-range slice),
// windows that straddle the periodic seam or span the whole of a short
// axis, and — from the saturated floor of a huge or non-finite position —
// windows that overflow int, which leaves their coordinates
// non-consecutive mod 24 and mod 12.
func TestReachesMatchesStencilPoints(t *testing.T) {
	for _, dims := range [][3]int{{24, 12, 3}, {4, 4, 4}} {
		c := New(dims[0], dims[1], dims[2]).Coupling
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
						var wantO [ibm.SupportWidth]int
						var wantOut [ibm.SupportWidth]bool
						wantReach := false
						for i := range wantO {
							p := WrapIndex(st.Base[a]+i, n)
							wantO[i] = c.at[a][p]
							wantOut[i] = p < lo || p >= hi
							wantReach = wantReach || !wantOut[i]
						}
						var o [ibm.SupportWidth]int
						var out [ibm.SupportWidth]bool
						reach := c.boxWindow(a, ibm.StencilBase(xa), &b, &o, &out)
						if reach != wantReach || reach && (o != wantO || out != wantOut) {
							t.Fatalf("axis %d (n = %d), box [%d, %d), x = %v: reach %v, offsets %v, outside %v; stencil points say %v, %v, %v",
								a, n, lo, hi, xa, reach, o, out, wantReach, wantO, wantOut)
						}
						if got := ResolveStencil(&st, &c.at)[a]; got != wantO {
							t.Fatalf("axis %d (n = %d), x = %v: ResolveStencil offsets %v, stencil points say %v", a, n, xa, got, wantO)
						}
					}
				}
			}
		}
	}
}
