package ibm

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"lbmib/internal/cpu"
)

// TestStencilLayout pins the byte offsets at which delta_amd64.s and
// grid's coupling_amd64.s address a Stencil's fields, on every host, so
// a reordered or resized field fails here rather than corrupting memory
// on an AVX2 host.
func TestStencilLayout(t *testing.T) {
	var s Stencil
	got := [4]uintptr{unsafe.Offsetof(s.Base), unsafe.Offsetof(s.Wx), unsafe.Offsetof(s.Wy), unsafe.Offsetof(s.Wz)}
	if want := [4]uintptr{0, 24, 56, 88}; got != want || unsafe.Sizeof(s.Base[0]) != 8 {
		t.Fatalf("Stencil's Base, Wx, Wy and Wz lie at %v with %d-byte bases, want %v and 8: the assembly bodies address the old layout",
			got, unsafe.Sizeof(s.Base[0]), want)
	}
}

// The vector body of Compute (delta_amd64.s) is held to the Go body bit
// for bit: the same bases and the same weights, compared by their bits,
// on 10⁶ random positions and 10⁶ positions built from special values.
// A weight is never NaN (phi4 maps a NaN argument to 0), so no NaN
// needs matching. The vector body declines exactly the positions with
// a coordinate at or above 2⁵² in magnitude, or NaN, which Compute
// hands to the Go body.

const vectorStencils = 1_000_000

func requireVector(t *testing.T) {
	if !cpu.Vector() {
		t.Skip("no vector body on this host")
	}
}

// checkStencil fails t unless the vector body serves x exactly when
// every coordinate is below 2⁵² in magnitude, and then gives the Go
// body's base and weight bits.
func checkStencil(t *testing.T, n int, x [3]float64) {
	t.Helper()
	var got, want Stencil
	inRange := true
	for _, c := range x {
		inRange = inRange && math.Abs(c) < 0x1p52
	}
	if ok := computeAVX2(&got, x[0], x[1], x[2]); ok != inRange {
		t.Fatalf("position %d at %v: vector body served it: %v, want %v", n, x, ok, inRange)
	}
	if !inRange {
		return
	}
	want.compute(x)
	same := got.Base == want.Base
	for a, w := range [3]*[SupportWidth]float64{&got.Wx, &got.Wy, &got.Wz} {
		ww := [3]*[SupportWidth]float64{&want.Wx, &want.Wy, &want.Wz}[a]
		for i := range w {
			same = same && math.Float64bits(w[i]) == math.Float64bits(ww[i])
		}
	}
	if !same {
		t.Fatalf("position %d at %v (bits %#x %#x %#x):\nvector %+v\nGo     %+v",
			n, x, math.Float64bits(x[0]), math.Float64bits(x[1]), math.Float64bits(x[2]), got, want)
	}
}

// Random positions, most in a box of a few hundred lattice units and the
// rest anywhere up to 10⁸ in magnitude, either sign.
func TestVectorStencilMatchesGoBitwise(t *testing.T) {
	requireVector(t)
	r := rand.New(rand.NewSource(43))
	for n := 0; n < vectorStencils; n++ {
		var x [3]float64
		for a := range x {
			if r.Intn(4) == 0 {
				x[a] = (r.Float64()*2 - 1) * math.Pow(10, float64(r.Intn(9)))
			} else {
				x[a] = r.Float64() * 300
			}
		}
		checkStencil(t, n, x)
	}
}

// stencilSpecials are coordinates where the two bodies could part:
// integers (|r| exactly 1 and 2 in the stencil's outer lanes) and the
// floats next to them, halves, ±0, subnormals, negatives, ±1e300, NaN,
// ±Inf and the magnitudes whose floor saturates the int conversion or
// whose base wraps when 1, 2 or 3 is added.
var stencilSpecials = func() []float64 {
	xs := []float64{0, math.Copysign(0, -1), 0x1p-52, -0x1p-52, 1e-20, -1e-20,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022,
		1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, math.NaN(), -math.NaN(),
		math.Inf(1), math.Inf(-1), 0x1p52, -0x1p52, 0x1p53, -0x1p53,
		0x1p63, -0x1p63, 0x1p64, -0x1p64, math.Nextafter(0x1p63, 0), math.Nextafter(-0x1p63, 0),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000001)}
	for k := -6.0; k <= 70; k++ {
		xs = append(xs, k, k+0.5, math.Nextafter(k, math.Inf(1)), math.Nextafter(k, math.Inf(-1)),
			k+0x1p-52, k-0x1p-52, k+1e-20)
	}
	for _, k := range []float64{1e6, 0x1p52 - 1, 0x1p52 + 1, 0x1p62, 9.2e18} {
		xs = append(xs, k, -k, math.Nextafter(k, 0), math.Nextafter(k, math.Inf(1)), k+0.5, -k-0.5)
	}
	return xs
}()

// Positions whose coordinates are drawn from stencilSpecials with
// probability ½, ¼ or 1 per coordinate (so a stencil mixes special and
// random axes), the rest random; every special value appears on every
// axis next to every kind of neighbour.
func TestVectorStencilMatchesGoOnSpecialValues(t *testing.T) {
	requireVector(t)
	r := rand.New(rand.NewSource(44))
	for n := 0; n < vectorStencils; n++ {
		p := [...]int{2, 4, 1}[n%3]
		var x [3]float64
		for a := range x {
			if r.Intn(p) == 0 {
				x[a] = stencilSpecials[r.Intn(len(stencilSpecials))]
			} else {
				x[a] = (r.Float64()*2 - 1) * math.Pow(10, float64(r.Intn(4)))
			}
		}
		checkStencil(t, n, x)
	}
	// And every special value on each axis, deterministically.
	for n, s := range stencilSpecials {
		checkStencil(t, n, [3]float64{s, s, s})
	}
}
