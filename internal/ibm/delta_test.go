package ibm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPhi4SupportAndSymmetry(t *testing.T) {
	if Phi4(2.0001) != 0 || Phi4(-3) != 0 {
		t.Fatal("Phi4 must vanish outside |r| <= 2")
	}
	for _, r := range []float64{0, 0.25, 0.5, 1, 1.5, 1.99} {
		if math.Abs(Phi4(r)-Phi4(-r)) > 1e-15 {
			t.Fatalf("Phi4 not even at r=%g", r)
		}
	}
}

func TestPhi4NonNegative(t *testing.T) {
	for r := -2.5; r <= 2.5; r += 0.001 {
		if Phi4(r) < 0 {
			t.Fatalf("Phi4(%g) = %g < 0", r, Phi4(r))
		}
	}
}

func TestPhi4PeakAtZero(t *testing.T) {
	// φ(0) = (3 + 1)/8 = 0.5 for the 4-point kernel.
	if math.Abs(Phi4(0)-0.5) > 1e-15 {
		t.Fatalf("Phi4(0) = %g, want 0.5", Phi4(0))
	}
}

func TestPhi4ContinuousAtOne(t *testing.T) {
	lo, hi := Phi4(1-1e-12), Phi4(1+1e-12)
	if math.Abs(lo-hi) > 1e-9 {
		t.Fatalf("Phi4 discontinuous at |r|=1: %g vs %g", lo, hi)
	}
}

// Partition of unity: Σ_j φ(r − j) = 1 for every r.
func TestPhi4PartitionOfUnity(t *testing.T) {
	for r := -1.0; r <= 1.0; r += 0.01 {
		sum := 0.0
		for j := -3; j <= 3; j++ {
			sum += Phi4(r - float64(j))
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("partition of unity fails at r=%g: sum=%g", r, sum)
		}
	}
}

// First moment: Σ_j (r − j) φ(r − j) = 0 — the kernel interpolates linear
// fields exactly.
func TestPhi4FirstMomentZero(t *testing.T) {
	for r := -1.0; r <= 1.0; r += 0.01 {
		m := 0.0
		for j := -3; j <= 3; j++ {
			m += (r - float64(j)) * Phi4(r-float64(j))
		}
		if math.Abs(m) > 1e-12 {
			t.Fatalf("first moment fails at r=%g: m=%g", r, m)
		}
	}
}

// Peskin's even-odd condition: Σ_{j even} φ(r−j) = Σ_{j odd} φ(r−j) = 1/2.
func TestPhi4EvenOddCondition(t *testing.T) {
	for r := -1.0; r <= 1.0; r += 0.05 {
		even, odd := 0.0, 0.0
		for j := -4; j <= 4; j++ {
			v := Phi4(r - float64(j))
			if j%2 == 0 {
				even += v
			} else {
				odd += v
			}
		}
		if math.Abs(even-0.5) > 1e-12 || math.Abs(odd-0.5) > 1e-12 {
			t.Fatalf("even/odd sums at r=%g: %g, %g, want 0.5, 0.5", r, even, odd)
		}
	}
}

func TestStencilCoversSupport(t *testing.T) {
	var st Stencil
	st.Compute([3]float64{10.3, 5.0, 7.9})
	if st.Base != [3]int{9, 4, 6} {
		t.Fatalf("Base = %v, want [9 4 6]", st.Base)
	}
	// Nodes outside the stencil must have zero kernel value.
	for _, off := range []int{-1, SupportWidth} {
		if Phi4(10.3-float64(st.Base[0]+off)) != 0 {
			t.Fatalf("kernel nonzero outside stencil at offset %d", off)
		}
	}
}

// Compute's weights, through Phi4's inlined body, are Phi4 bit for bit:
// every weight equals Phi4(x − (Base+i)) on every axis, at random
// positions, at integers and a few ulps either side of them, at
// ±2⁻⁵² and ±1e-20, where |r| is exactly 1 or 2 (integers), and at
// ±1e300, NaN, ±Inf and the positions whose floor saturates or
// overflows the int conversion.
func TestStencilComputeMatchesPhi4Bitwise(t *testing.T) {
	xs := []float64{0, 0x1p-52, -0x1p-52, 1e-20, -1e-20, 1e300, -1e300,
		math.NaN(), math.Inf(1), math.Inf(-1), 0x1p63, -0x1p63, 0x1p64, -0x1p64,
		math.Nextafter(0x1p63, 0), math.Nextafter(-0x1p63, 0), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for k := -5.0; k <= 5; k++ {
		xs = append(xs, k, k+0x1p-52, k-0x1p-52, math.Nextafter(k, math.Inf(1)), math.Nextafter(k, math.Inf(-1)), k+0.5, k+1e-20)
	}
	for _, k := range []float64{31, 64, 1e6, 0x1p52 - 1} {
		xs = append(xs, k, -k, math.Nextafter(k, 0), math.Nextafter(k, math.Inf(1)))
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		xs = append(xs, (r.Float64()*2-1)*math.Pow(10, float64(r.Intn(8))))
	}
	for n, xa := range xs {
		x := [3]float64{xa, xs[(n+1)%len(xs)], xs[(n+7)%len(xs)]}
		var st Stencil
		st.Compute(x)
		for a, w := range [3]*[SupportWidth]float64{&st.Wx, &st.Wy, &st.Wz} {
			if st.Base[a] != StencilBase(x[a]) {
				t.Fatalf("x[%d] = %v: Base %d, StencilBase %d", a, x[a], st.Base[a], StencilBase(x[a]))
			}
			for i := range w {
				want := Phi4(x[a] - float64(st.Base[a]+i))
				if math.Float64bits(w[i]) != math.Float64bits(want) {
					t.Fatalf("x[%d] = %v, i = %d: weight %v (%#x), Phi4 %v (%#x)",
						a, x[a], i, w[i], math.Float64bits(w[i]), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestStencilWeightSumIsOne(t *testing.T) {
	f := func(xr, yr, zr float64) bool {
		x := [3]float64{norm(xr), norm(yr), norm(zr)}
		var st Stencil
		st.Compute(x)
		return math.Abs(st.WeightSum()-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func norm(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return 20 + 10*math.Tanh(v)
}
