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

func TestCircularConvolveKnown(t *testing.T) {
	got := CircularConvolve([]float64{1, 2, 3, 4}, []float64{1, 0, 0, 0})
	sliceAlmostEq(t, got, []float64{1, 2, 3, 4}, 1e-12, "circ identity")
	got = CircularConvolve([]float64{1, 2, 3, 4}, []float64{0, 1, 0, 0})
	sliceAlmostEq(t, got, []float64{4, 1, 2, 3}, 1e-12, "circ shift")
}

func TestCrossCorrelateZeroLag(t *testing.T) {
	x := []float64{1, 2, 3}
	r := CrossCorrelate(x, x)
	// Zero lag at index len(y)-1 = 2 equals energy.
	if !almostEq(r[2], 14, 1e-12) {
		t.Fatalf("zero-lag autocorrelation %g, want 14", r[2])
	}
	if len(r) != 5 {
		t.Fatalf("length %d, want 5", len(r))
	}
	// Symmetry of autocorrelation.
	if !almostEq(r[1], r[3], 1e-12) || !almostEq(r[0], r[4], 1e-12) {
		t.Fatal("autocorrelation not symmetric")
	}
}

func TestAutoCorrelateWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 200000
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	r := AutoCorrelate(x, 4)
	if !almostEq(r[0], 1, 0.02) {
		t.Fatalf("lag 0 = %g, want about 1", r[0])
	}
	for m := 1; m <= 4; m++ {
		if math.Abs(r[m]) > 0.02 {
			t.Fatalf("lag %d = %g, want about 0", m, r[m])
		}
	}
}

func TestAutoCorrelateEdge(t *testing.T) {
	if AutoCorrelate(nil, 3) != nil {
		t.Fatal("empty input should yield nil")
	}
	r := AutoCorrelate([]float64{2}, 5)
	if len(r) != 1 || !almostEq(r[0], 4, 1e-12) {
		t.Fatalf("single sample autocorr = %v", r)
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

func TestDownUpsample(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	sliceAlmostEq(t, Downsample(x, 2), []float64{1, 3, 5, 7}, 0, "down2")
	sliceAlmostEq(t, Downsample(x, 3), []float64{1, 4, 7}, 0, "down3")
	sliceAlmostEq(t, Upsample([]float64{1, 2}, 3), []float64{1, 0, 0, 2, 0, 0}, 0, "up3")
}

func TestUpsampleThenDownsampleIdentity(t *testing.T) {
	f := func(seed int64, fsel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		factor := 1 + int(fsel)%5
		x := make([]float64, 20)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := Downsample(Upsample(x, factor), factor)
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
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

func TestKaiserBetaMonotone(t *testing.T) {
	prev := -1.0
	for a := 15.0; a <= 100; a += 5 {
		b := KaiserBeta(a)
		if b < prev {
			t.Fatalf("KaiserBeta not monotone at %g dB", a)
		}
		prev = b
	}
	if KaiserBeta(10) != 0 {
		t.Fatal("KaiserBeta below 21 dB should be 0")
	}
}

func TestKaiserOrderReasonable(t *testing.T) {
	n := KaiserOrder(60, 0.05)
	if n < 40 || n > 120 {
		t.Fatalf("KaiserOrder(60 dB, 0.05) = %d, out of plausible range", n)
	}
	if KaiserOrder(10, 0.5) < 1 {
		t.Fatal("order must be at least 1")
	}
}

func TestWindowGains(t *testing.T) {
	w := Window(Rectangular, 64)
	if !almostEq(CoherentGain(w), 1, 1e-12) || !almostEq(NoiseGain(w), 1, 1e-12) {
		t.Fatal("rectangular gains should be 1")
	}
	h := Window(Hann, 4096)
	if !almostEq(CoherentGain(h), 0.5, 1e-3) {
		t.Fatalf("Hann coherent gain %g, want about 0.5", CoherentGain(h))
	}
	if !almostEq(NoiseGain(h), 0.375, 1e-3) {
		t.Fatalf("Hann noise gain %g, want about 0.375", NoiseGain(h))
	}
}

func TestEnergyScaleAddSub(t *testing.T) {
	x := []float64{1, -2, 2}
	if !almostEq(Energy(x), 9, 1e-12) {
		t.Fatal("energy")
	}
	sliceAlmostEq(t, Scale(x, -2), []float64{-2, 4, -4}, 1e-12, "scale")
	sliceAlmostEq(t, Add(x, x), []float64{2, -4, 4}, 1e-12, "add")
	sliceAlmostEq(t, Sub(x, x), []float64{0, 0, 0}, 1e-12, "sub")
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
		got := os.Process(x)
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
	batch := osA.Process(x)

	osB, _ := NewOverlapSave(16, h)
	// Hop-aligned chunks keep zero-padding out of the interior.
	hop := osB.Hop()
	var stream []float64
	for i := 0; i < len(x); i += 4 * hop {
		end := i + 4*hop
		if end > len(x) {
			end = len(x)
		}
		stream = append(stream, osB.Process(x[i:end])...)
	}
	sliceAlmostEq(t, stream, batch, 1e-8, "streaming")

	// Ragged chunks: each call's zero-padded tail frame must not leak
	// into the history the next call starts from.
	osC, _ := NewOverlapSave(16, h)
	stream = stream[:0]
	start := 0
	for _, n := range []int{10, 30, 7, 153} {
		stream = append(stream, osC.Process(x[start:start+n])...)
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
	frames := (len(x) + os.Hop() - 1) / os.Hop()
	if nFFT != frames || nMul != frames || nIFFT != frames {
		t.Fatalf("taps invoked %d/%d/%d times, want %d", nFFT, nMul, nIFFT, frames)
	}
}

func TestOverlapSaveReset(t *testing.T) {
	h := []float64{1, 1, 1}
	os, _ := NewOverlapSave(8, h)
	x := []float64{1, 2, 3, 4, 5, 6}
	first := os.Process(x)
	os.Reset()
	second := os.Process(x)
	sliceAlmostEq(t, second, first, 1e-12, "reset")
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
