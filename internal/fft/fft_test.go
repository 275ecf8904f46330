package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// forward and inverse transform a copy of x with the shared plan's
// in-place kernels.
func forward(x []complex128) []complex128 { return transformed(defaultPlan.ForwardInPlace, x) }
func inverse(x []complex128) []complex128 { return transformed(defaultPlan.InverseInPlace, x) }

func transformed(tf func([]complex128), x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	tf(out)
	return out
}

func maxDiff(a, b []complex128) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesNaivePow2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randComplex(rng, n)
		got := forward(x)
		want := DFTNaive(x)
		if d := maxDiff(got, want); d > tol*float64(n) {
			t.Errorf("n=%d: max diff %g", n, d)
		}
	}
}

func TestForwardMatchesNaiveArbitrary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 6, 7, 9, 12, 17, 31, 100, 147} {
		x := randComplex(rng, n)
		got := forward(x)
		want := DFTNaive(x)
		if d := maxDiff(got, want); d > tol*float64(n) {
			t.Errorf("n=%d (Bluestein): max diff %g", n, d)
		}
	}
}

func TestInverseRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 8, 13, 64, 100, 1024} {
		x := randComplex(rng, n)
		y := inverse(forward(x))
		if d := maxDiff(x, y); d > tol*float64(n) {
			t.Errorf("n=%d: roundtrip max diff %g", n, d)
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{8, 64, 100, 513} {
		x := randComplex(rng, n)
		var tp float64
		for _, v := range x {
			tp += real(v)*real(v) + imag(v)*imag(v)
		}
		X := forward(x)
		var fp float64
		for _, v := range X {
			fp += real(v)*real(v) + imag(v)*imag(v)
		}
		fp /= float64(n)
		if math.Abs(tp-fp) > 1e-8*tp {
			t.Errorf("n=%d: Parseval violated: time %g freq %g", n, tp, fp)
		}
	}
}

func TestImpulseIsFlat(t *testing.T) {
	n := 32
	x := make([]complex128, n)
	x[0] = 1
	X := forward(x)
	for k, v := range X {
		if cmplx.Abs(v-1) > tol {
			t.Fatalf("bin %d: impulse spectrum %v, want 1", k, v)
		}
	}
}

func TestSingleToneBin(t *testing.T) {
	n := 64
	k0 := 5
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * float64(k0) * float64(i) / float64(n)
		x[i] = cmplx.Exp(complex(0, ang))
	}
	X := forward(x)
	for k, v := range X {
		want := complex128(0)
		if k == k0 {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(v-want) > 1e-8 {
			t.Errorf("bin %d = %v, want %v", k, v, want)
		}
	}
}

func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 128
	x := randComplex(rng, n)
	y := randComplex(rng, n)
	a, b := complex(2.5, -1), complex(-0.5, 3)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a*x[i] + b*y[i]
	}
	X, Y, S := forward(x), forward(y), forward(sum)
	for k := range S {
		if cmplx.Abs(S[k]-(a*X[k]+b*Y[k])) > 1e-8 {
			t.Fatalf("linearity violated at bin %d", k)
		}
	}
}

func TestRealSpectrumSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 64
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	X := defaultPlan.RealForward(x)
	for k := 1; k < n; k++ {
		if cmplx.Abs(X[k]-cmplx.Conj(X[n-k])) > tol {
			t.Fatalf("conjugate symmetry violated at bin %d", k)
		}
	}
	if math.Abs(imag(X[0])) > tol {
		t.Fatalf("DC bin not real: %v", X[0])
	}
}

func TestPlanReuseConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewPlan()
	for i := 0; i < 5; i++ {
		for _, n := range []int{16, 24, 64} {
			x := randComplex(rng, n)
			if d := maxDiff(transformed(p.ForwardInPlace, x), forward(x)); d > tol {
				t.Fatalf("plan reuse diverges at n=%d iter %d: %g", n, i, d)
			}
		}
	}
}

func TestIsPow2(t *testing.T) {
	cases := map[int]bool{1: true, 2: true, 3: false, 4: true, 6: false, 1024: true, 0: false, -4: false}
	for n, want := range cases {
		if got := IsPow2(n); got != want {
			t.Errorf("IsPow2(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 17: 32, 1024: 1024, 1025: 2048}
	for n, want := range cases {
		if got := NextPow2(n); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNextPow2PanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NextPow2(0)")
		}
	}()
	NextPow2(0)
}

func TestForward2DMatchesSeparableNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows, cols := 8, 6
	x := make([][]complex128, rows)
	for r := range x {
		x[r] = randComplex(rng, cols)
	}
	X := Forward2D(x)
	// Naive 2-D DFT.
	for p := 0; p < rows; p++ {
		for q := 0; q < cols; q++ {
			var s complex128
			for m := 0; m < rows; m++ {
				for n := 0; n < cols; n++ {
					ang := -2 * math.Pi * (float64(p*m)/float64(rows) + float64(q*n)/float64(cols))
					s += x[m][n] * cmplx.Exp(complex(0, ang))
				}
			}
			if cmplx.Abs(X[p][q]-s) > 1e-8 {
				t.Fatalf("2-D mismatch at (%d,%d): got %v want %v", p, q, X[p][q], s)
			}
		}
	}
}

func TestInverse2DRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows, cols := 16, 8
	x := make([][]complex128, rows)
	for r := range x {
		x[r] = randComplex(rng, cols)
	}
	y := Inverse2D(Forward2D(x))
	for r := range x {
		if d := maxDiff(x[r], y[r]); d > 1e-9 {
			t.Fatalf("2-D roundtrip row %d: max diff %g", r, d)
		}
	}
}

func TestFrequencyResponseFIR(t *testing.T) {
	// 3-tap moving average: H(F) known in closed form.
	b := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	n := 64
	h := FrequencyResponse(b, nil, n)
	for k := 0; k < n; k++ {
		w := 2 * math.Pi * float64(k) / float64(n)
		want := complex(1.0/3, 0) * (1 + cmplx.Exp(complex(0, -w)) + cmplx.Exp(complex(0, -2*w)))
		if cmplx.Abs(h[k]-want) > 1e-9 {
			t.Fatalf("bin %d: got %v want %v", k, h[k], want)
		}
	}
}

func TestFrequencyResponseIIR(t *testing.T) {
	// One-pole lowpass y[n] = x[n] + 0.5 y[n-1]: H = 1/(1-0.5 z^-1).
	b := []float64{1}
	a := []float64{1, -0.5}
	n := 32
	h := FrequencyResponse(b, a, n)
	for k := 0; k < n; k++ {
		z := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
		want := 1 / (1 - 0.5*z)
		if cmplx.Abs(h[k]-want) > 1e-9 {
			t.Fatalf("bin %d: got %v want %v", k, h[k], want)
		}
	}
}

func TestFrequencyResponseLongNumerator(t *testing.T) {
	// Numerator longer than grid: falls back to direct evaluation; compare
	// against Horner at each grid point.
	rng := rand.New(rand.NewSource(10))
	b := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	n := 8
	h := FrequencyResponse(b, nil, n)
	for k := 0; k < n; k++ {
		z := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
		want := polyEval(b, z)
		if cmplx.Abs(h[k]-want) > 1e-9 {
			t.Fatalf("bin %d: got %v want %v", k, h[k], want)
		}
	}
}

func TestMagnitude2(t *testing.T) {
	x := []complex128{3 + 4i, 0, -2i}
	got := Magnitude2(x)
	want := []float64{25, 0, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("Magnitude2[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestQuickRoundtripProperty(t *testing.T) {
	// Property: inverse(forward(x)) == x for random lengths and contents.
	f := func(seed int64, lenSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(lenSel)%200
		x := randComplex(rng, n)
		return maxDiff(x, inverse(forward(x))) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickParsevalProperty(t *testing.T) {
	f := func(seed int64, lenSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(lenSel)%128
		x := randComplex(rng, n)
		var tp, fp float64
		for _, v := range x {
			tp += real(v)*real(v) + imag(v)*imag(v)
		}
		for _, v := range forward(x) {
			fp += real(v)*real(v) + imag(v)*imag(v)
		}
		fp /= float64(n)
		return math.Abs(tp-fp) <= 1e-7*(tp+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTimeShiftProperty(t *testing.T) {
	// Circular shift by m multiplies bin k by exp(-2 pi i k m / N).
	rng := rand.New(rand.NewSource(11))
	n, m := 64, 7
	x := randComplex(rng, n)
	shifted := make([]complex128, n)
	for i := range shifted {
		shifted[i] = x[((i-m)%n+n)%n]
	}
	X, S := forward(x), forward(shifted)
	for k := range X {
		ph := cmplx.Exp(complex(0, -2*math.Pi*float64(k*m)/float64(n)))
		if cmplx.Abs(S[k]-X[k]*ph) > 1e-8 {
			t.Fatalf("shift theorem violated at bin %d", k)
		}
	}
}

func BenchmarkForward1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randComplex(rng, 1024)
	p := NewPlan()
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.ForwardInPlace(buf)
	}
}

func BenchmarkForwardBluestein1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randComplex(rng, 1000)
	p := NewPlan()
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.ForwardInPlace(buf)
	}
}
