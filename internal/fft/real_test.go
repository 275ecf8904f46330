package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func randReal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// realLengths covers the radix-2 fast path (power-of-two), the packed
// even-length path whose half transform goes through Bluestein, odd
// Bluestein fallbacks, and the trivial sizes.
var realLengths = []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 17, 24, 31, 64, 100, 147, 256, 1000, 1024}

func TestRealForwardMatchesComplexTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	p := NewPlan()
	for _, n := range realLengths {
		x := randReal(rng, n)
		got := p.RealForward(x)
		c := make([]complex128, n)
		for i, v := range x {
			c[i] = complex(v, 0)
		}
		want := transformed(p.ForwardInPlace, c)
		if d := maxDiff(got, want); d > tol*float64(n) {
			t.Errorf("n=%d: RealForward deviates from complex transform by %g", n, d)
		}
	}
}

// TestRealInverseRoundtrip: RealForward's spectrum is a complete
// conjugate-symmetric spectrum, so the complex inverse returns the real
// input.
func TestRealInverseRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := NewPlan()
	for _, n := range realLengths {
		x := randReal(rng, n)
		y := p.RealForward(x)
		p.InverseInPlace(y)
		if len(y) != n {
			t.Fatalf("n=%d: round trip changed length to %d", n, len(y))
		}
		var d float64
		for i := range x {
			if e := cmplx.Abs(complex(x[i], 0) - y[i]); e > d {
				d = e
			}
		}
		if d > tol*float64(n) {
			t.Errorf("n=%d: Inverse(RealForward(x)) max diff %g", n, d)
		}
	}
}

func TestRealForwardParsevalProperty(t *testing.T) {
	f := func(seed int64, lenSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(lenSel)%256
		x := randReal(rng, n)
		var tp float64
		for _, v := range x {
			tp += v * v
		}
		var fp float64
		for _, v := range defaultPlan.RealForward(x) {
			re, im := real(v), imag(v)
			fp += re*re + im*im
		}
		fp /= float64(n)
		return math.Abs(tp-fp) <= 1e-7*(tp+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestRealRoundtripProperty(t *testing.T) {
	f := func(seed int64, lenSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(lenSel)%256
		x := randReal(rng, n)
		y := inverse(defaultPlan.RealForward(x))
		for i := range x {
			if cmplx.Abs(complex(x[i], 0)-y[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestRealForwardSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{2, 4, 7, 16, 100} {
		X := defaultPlan.RealForward(randReal(rng, n))
		for k := 1; k < n; k++ {
			if cmplx.Abs(X[k]-cmplx.Conj(X[n-k])) > tol*float64(n) {
				t.Fatalf("n=%d: conjugate symmetry violated at bin %d", n, k)
			}
		}
		if math.Abs(imag(X[0])) > tol {
			t.Fatalf("n=%d: DC bin not real: %v", n, X[0])
		}
	}
}

// TestPlanConcurrentUse hammers one shared plan from many goroutines across
// a mix of sizes (cold caches included) and checks every result against a
// serially computed reference. Run under -race this asserts the table
// caches are publication-safe.
func TestPlanConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sizes := []int{8, 12, 64, 100, 256, 333, 1024}
	inputs := make([][]float64, len(sizes))
	want := make([][]complex128, len(sizes))
	ref := NewPlan()
	for i, n := range sizes {
		inputs[i] = randReal(rng, n)
		want[i] = ref.RealForward(inputs[i])
	}
	shared := NewPlan() // cold: goroutines race to build every table
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				i := (w + rep) % len(sizes)
				got := shared.RealForward(inputs[i])
				if d := maxDiff(got, want[i]); d > tol*float64(sizes[i]) {
					t.Errorf("worker %d rep %d n=%d: diff %g", w, rep, sizes[i], d)
					return
				}
				// Round trip through the complex path too, sharing the
				// same tables.
				back := mustComplex(inputs[i])
				shared.ForwardInPlace(back)
				shared.InverseInPlace(back)
				for j := range back {
					if math.Abs(real(back[j])-inputs[i][j]) > 1e-7 {
						t.Errorf("worker %d rep %d n=%d: roundtrip drift", w, rep, sizes[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func mustComplex(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return c
}

func BenchmarkRealForward1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randReal(rng, 1024)
	p := NewPlan()
	p.RealForward(x) // warm tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RealForward(x)
	}
}

func BenchmarkComplexForwardReal1024(b *testing.B) {
	// Baseline for BenchmarkRealForward1024: same input through the full
	// complex transform.
	rng := rand.New(rand.NewSource(1))
	x := randReal(rng, 1024)
	p := NewPlan()
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range x {
			buf[j] = complex(v, 0)
		}
		p.ForwardInPlace(buf)
	}
}
