package ibm

import (
	"math"
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
