package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func sliceAlmostEq(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !almostEq(got[i], want[i], tol) {
			t.Fatalf("%s: index %d: got %g, want %g", label, i, got[i], want[i])
		}
	}
}

func TestConvolveDirectKnown(t *testing.T) {
	got := ConvolveDirect([]float64{1, 2, 3}, []float64{1, 1})
	sliceAlmostEq(t, got, []float64{1, 3, 5, 3}, 1e-12, "conv")
}

func TestConvolveIdentity(t *testing.T) {
	x := []float64{4, -1, 2.5, 0, 7}
	got := Convolve(x, []float64{1})
	sliceAlmostEq(t, got, x, 1e-12, "identity")
}

func TestConvolveFFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nx := range []int{5, 50, 200} {
		for _, nh := range []int{1, 7, 64} {
			x := make([]float64, nx)
			h := make([]float64, nh)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			for i := range h {
				h[i] = rng.NormFloat64()
			}
			sliceAlmostEq(t, ConvolveFFT(x, h), ConvolveDirect(x, h), 1e-9, "fft-vs-direct")
		}
	}
}

func TestConvolveCommutative(t *testing.T) {
	f := func(seed int64, na, nb uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 1+int(na)%40)
		h := make([]float64, 1+int(nb)%40)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range h {
			h[i] = rng.NormFloat64()
		}
		a, b := Convolve(x, h), Convolve(h, x)
		for i := range a {
			if !almostEq(a[i], b[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConvolveEmpty(t *testing.T) {
	if Convolve(nil, []float64{1}) != nil || Convolve([]float64{1}, nil) != nil {
		t.Fatal("convolution with empty operand should be nil")
	}
}

func TestSinc(t *testing.T) {
	if Sinc(0) != 1 {
		t.Fatal("Sinc(0) != 1")
	}
	for _, k := range []float64{1, 2, 3, -4} {
		if !almostEq(Sinc(k), 0, 1e-15) {
			t.Fatalf("Sinc(%g) = %g, want 0", k, Sinc(k))
		}
	}
	if !almostEq(Sinc(0.5), 2/math.Pi, 1e-12) {
		t.Fatalf("Sinc(0.5) = %g", Sinc(0.5))
	}
}

func TestWindowsBasics(t *testing.T) {
	for _, wt := range []WindowType{Rectangular, Hann, Hamming, Blackman, Kaiser} {
		n := 33
		w := Window(wt, n)
		if len(w) != n {
			t.Fatalf("%v: length %d", wt, len(w))
		}
		// Symmetry.
		for i := 0; i < n/2; i++ {
			if !almostEq(w[i], w[n-1-i], 1e-12) {
				t.Fatalf("%v: not symmetric at %d (%g vs %g)", wt, i, w[i], w[n-1-i])
			}
		}
		// Peak at center, value in (0, 1].
		mid := w[n/2]
		if mid <= 0 || mid > 1+1e-12 {
			t.Fatalf("%v: center value %g", wt, mid)
		}
		for _, v := range w {
			if v > mid+1e-12 {
				t.Fatalf("%v: window exceeds center value", wt)
			}
		}
	}
}

func TestWindowEndpoints(t *testing.T) {
	hann := Window(Hann, 21)
	if !almostEq(hann[0], 0, 1e-12) || !almostEq(hann[20], 0, 1e-12) {
		t.Fatal("Hann endpoints should be 0")
	}
	ham := Window(Hamming, 21)
	if !almostEq(ham[0], 0.08, 1e-12) {
		t.Fatalf("Hamming endpoint %g, want 0.08", ham[0])
	}
	bk := Window(Blackman, 21)
	if !almostEq(bk[0], 0, 1e-12) {
		t.Fatalf("Blackman endpoint %g, want about 0", bk[0])
	}
}

func TestWindowLength1(t *testing.T) {
	for _, wt := range []WindowType{Rectangular, Hann, Hamming, Blackman, Kaiser} {
		w := Window(wt, 1)
		if len(w) != 1 || w[0] != 1 {
			t.Fatalf("%v length-1 window = %v", wt, w)
		}
	}
}

func TestBesselI0(t *testing.T) {
	// Reference values from Abramowitz & Stegun.
	cases := []struct{ x, want float64 }{
		{0, 1},
		{1, 1.2660658777520084},
		{2, 2.2795853023360673},
		{5, 27.239871823604442},
	}
	for _, c := range cases {
		if got := BesselI0(c.x); !almostEq(got, c.want, 1e-10*c.want) {
			t.Errorf("I0(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

// TestWindowGains checks the window shapes through their coherent gain
// sum(w)/n and noise gain sum(w^2)/n, the normalisations of a windowed
// periodogram.
func TestWindowGains(t *testing.T) {
	gains := func(w []float64) (coherent, noise float64) {
		for _, v := range w {
			coherent += v
			noise += v * v
		}
		n := float64(len(w))
		return coherent / n, noise / n
	}
	if c, n := gains(Window(Rectangular, 64)); !almostEq(c, 1, 1e-12) || !almostEq(n, 1, 1e-12) {
		t.Fatal("rectangular gains should be 1")
	}
	c, n := gains(Window(Hann, 4096))
	if !almostEq(c, 0.5, 1e-3) {
		t.Fatalf("Hann coherent gain %g, want about 0.5", c)
	}
	if !almostEq(n, 0.375, 1e-3) {
		t.Fatalf("Hann noise gain %g, want about 0.375", n)
	}
}

func TestOverlapSaveMatchesDirectFIR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cfg := range []struct{ fftSize, taps, n int }{
		{16, 9, 100},
		{16, 16, 37},
		{64, 17, 500},
		{32, 1, 64},
	} {
		h := make([]float64, cfg.taps)
		for i := range h {
			h[i] = rng.NormFloat64()
		}
		x := make([]float64, cfg.n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		os, err := NewOverlapSave(cfg.fftSize, h)
		if err != nil {
			t.Fatal(err)
		}
		got := os.ProcessTapped(x, nil)
		want := ConvolveDirect(x, h)[:cfg.n]
		sliceAlmostEq(t, got, want, 1e-8, "overlap-save")
	}
}

func TestOverlapSaveStreamingEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := make([]float64, 9)
	for i := range h {
		h[i] = rng.NormFloat64()
	}
	x := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	osA, _ := NewOverlapSave(16, h)
	batch := osA.ProcessTapped(x, nil)

	osB, _ := NewOverlapSave(16, h)
	// Hop-aligned chunks keep zero-padding out of the interior.
	hop := osB.hop
	var stream []float64
	for i := 0; i < len(x); i += 4 * hop {
		end := i + 4*hop
		if end > len(x) {
			end = len(x)
		}
		stream = append(stream, osB.ProcessTapped(x[i:end], nil)...)
	}
	sliceAlmostEq(t, stream, batch, 1e-8, "streaming")

	// Ragged chunks: each call's zero-padded tail frame must not leak
	// into the history the next call starts from.
	osC, _ := NewOverlapSave(16, h)
	stream = stream[:0]
	start := 0
	for _, n := range []int{10, 30, 7, 153} {
		stream = append(stream, osC.ProcessTapped(x[start:start+n], nil)...)
		start += n
	}
	sliceAlmostEq(t, stream, batch, 1e-8, "ragged streaming")
}

func TestOverlapSaveErrors(t *testing.T) {
	if _, err := NewOverlapSave(8, make([]float64, 9)); err == nil {
		t.Fatal("expected error for filter longer than FFT")
	}
	if _, err := NewOverlapSave(8, nil); err == nil {
		t.Fatal("expected error for empty filter")
	}
}

func TestOverlapSaveTapsInvoked(t *testing.T) {
	h := []float64{0.5, 0.25, 0.125}
	os, _ := NewOverlapSave(8, h)
	var nFFT, nMul, nIFFT int
	tap := &StageTap{
		AfterFFT:      func(spec []complex128) { nFFT++ },
		AfterMultiply: func(spec []complex128) { nMul++ },
		AfterIFFT:     func(fr []float64) { nIFFT++ },
	}
	x := make([]float64, 30)
	for i := range x {
		x[i] = 1
	}
	os.ProcessTapped(x, tap)
	frames := (len(x) + os.hop - 1) / os.hop
	if nFFT != frames || nMul != frames || nIFFT != frames {
		t.Fatalf("taps invoked %d/%d/%d times, want %d", nFFT, nMul, nIFFT, frames)
	}
}

func BenchmarkConvolveFFT4096(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 4096)
	h := make([]float64, 128)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range h {
		h[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvolveFFT(x, h)
	}
}
