package filter

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

func TestNewFIRAndPredicates(t *testing.T) {
	f := NewFIR([]float64{0.5, 0.5}, "avg")
	if !f.IsFIR() {
		t.Fatal("FIR not recognized")
	}
	if f.Order() != 1 {
		t.Fatalf("order %d", f.Order())
	}
	iir := Filter{B: []float64{1}, A: []float64{1, -0.5}}
	if iir.IsFIR() {
		t.Fatal("IIR misclassified as FIR")
	}
}

func TestNormalize(t *testing.T) {
	f := Filter{B: []float64{2, 4}, A: []float64{2, 1}}
	n := f.Normalize()
	if n.A[0] != 1 || n.A[1] != 0.5 || n.B[0] != 1 || n.B[1] != 2 {
		t.Fatalf("normalize: %+v", n)
	}
}

func TestDCGain(t *testing.T) {
	f := NewFIR([]float64{0.25, 0.25, 0.25, 0.25}, "ma4")
	if math.Abs(f.DCGain()-1) > 1e-12 {
		t.Fatalf("DC gain %g", f.DCGain())
	}
	iir := Filter{B: []float64{0.5}, A: []float64{1, -0.5}}
	if math.Abs(iir.DCGain()-1) > 1e-12 {
		t.Fatalf("IIR DC gain %g", iir.DCGain())
	}
}

func TestResponseMatchesResponseAt(t *testing.T) {
	f := Filter{B: []float64{1, -0.3, 0.2}, A: []float64{1, -0.4}}
	n := 64
	resp := f.Response(n)
	for k := 0; k < n; k++ {
		want := f.ResponseAt(float64(k) / float64(n))
		if cmplx.Abs(resp[k]-want) > 1e-9 {
			t.Fatalf("bin %d: %v vs %v", k, resp[k], want)
		}
	}
}

func TestPowerGainFIRExact(t *testing.T) {
	f := NewFIR([]float64{1, 2, 3}, "t")
	if f.PowerGain() != 14 {
		t.Fatalf("power gain %g", f.PowerGain())
	}
}

func TestPowerGainIIRGeometric(t *testing.T) {
	// h[n] = 0.5^n -> sum h^2 = 1/(1-0.25) = 4/3.
	f := Filter{B: []float64{1}, A: []float64{1, -0.5}}
	if math.Abs(f.PowerGain()-4.0/3) > 1e-9 {
		t.Fatalf("IIR power gain %g, want %g", f.PowerGain(), 4.0/3)
	}
}

func TestImpulseResponseIIR(t *testing.T) {
	f := Filter{B: []float64{1}, A: []float64{1, -0.5}}
	h := f.ImpulseResponse(8)
	for i, v := range h {
		want := math.Pow(0.5, float64(i))
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("h[%d] = %g, want %g", i, v, want)
		}
	}
}

func TestStateMatchesConvolutionFIR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	taps := make([]float64, 12)
	for i := range taps {
		taps[i] = rng.NormFloat64()
	}
	f := NewFIR(taps, "rand")
	x := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := NewState(f).Process(x)
	want := dsp.ConvolveDirect(x, taps)[:len(x)]
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("sample %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestStateIIRRecursion(t *testing.T) {
	// y[n] = x[n] + 0.9 y[n-1] on a step input converges to 10.
	f := Filter{B: []float64{1}, A: []float64{1, -0.9}}
	st := NewState(f)
	var y float64
	for i := 0; i < 500; i++ {
		y = st.Step(1)
	}
	if math.Abs(y-10) > 1e-6 {
		t.Fatalf("step response %g, want 10", y)
	}
}

func TestDesignFIRLowpassResponse(t *testing.T) {
	f, err := DesignFIR(FIRSpec{Band: Lowpass, Taps: 63, F1: 0.2, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	// Unit DC gain, strong stopband rejection.
	if math.Abs(f.DCGain()-1) > 1e-9 {
		t.Fatalf("DC gain %g", f.DCGain())
	}
	if g := cmplx.Abs(f.ResponseAt(0.35)); g > 0.01 {
		t.Fatalf("stopband gain %g at F=0.35", g)
	}
	if g := cmplx.Abs(f.ResponseAt(0.1)); math.Abs(g-1) > 0.01 {
		t.Fatalf("passband gain %g at F=0.1", g)
	}
}

func TestDesignFIRHighpassResponse(t *testing.T) {
	f, err := DesignFIR(FIRSpec{Band: Highpass, Taps: 64, F1: 0.2, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.B) != 65 {
		t.Fatalf("even tap count should be bumped to odd, got %d", len(f.B))
	}
	if g := cmplx.Abs(f.ResponseAt(0.45)); math.Abs(g-1) > 0.02 {
		t.Fatalf("passband gain %g at F=0.45", g)
	}
	if g := cmplx.Abs(f.ResponseAt(0.05)); g > 0.01 {
		t.Fatalf("stopband gain %g at F=0.05", g)
	}
}

func TestDesignFIRBandpassResponse(t *testing.T) {
	f, err := DesignFIR(FIRSpec{Band: Bandpass, Taps: 81, F1: 0.15, F2: 0.3, Window: dsp.Blackman})
	if err != nil {
		t.Fatal(err)
	}
	if g := cmplx.Abs(f.ResponseAt(0.225)); math.Abs(g-1) > 0.02 {
		t.Fatalf("center gain %g", g)
	}
	for _, F := range []float64{0.03, 0.45} {
		if g := cmplx.Abs(f.ResponseAt(F)); g > 0.02 {
			t.Fatalf("stopband gain %g at F=%g", g, F)
		}
	}
}

func TestDesignFIRBandstopResponse(t *testing.T) {
	f, err := DesignFIR(FIRSpec{Band: Bandstop, Taps: 81, F1: 0.15, F2: 0.3, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	if g := cmplx.Abs(f.ResponseAt(0.225)); g > 0.02 {
		t.Fatalf("notch gain %g", g)
	}
	if math.Abs(f.DCGain()-1) > 0.01 {
		t.Fatalf("DC gain %g", f.DCGain())
	}
}

func TestDesignFIRKaiser(t *testing.T) {
	f, err := DesignFIR(FIRSpec{Band: Lowpass, Taps: 51, F1: 0.2, Window: dsp.Kaiser, Beta: 6})
	if err != nil {
		t.Fatal(err)
	}
	if g := cmplx.Abs(f.ResponseAt(0.35)); g > 0.005 {
		t.Fatalf("Kaiser stopband gain %g", g)
	}
}

func TestDesignFIRErrors(t *testing.T) {
	bad := []FIRSpec{
		{Band: Lowpass, Taps: 0, F1: 0.2},
		{Band: Lowpass, Taps: 16, F1: 0},
		{Band: Lowpass, Taps: 16, F1: 0.6},
		{Band: Bandpass, Taps: 16, F1: 0.3, F2: 0.2},
		{Band: Bandpass, Taps: 16, F1: 0.3, F2: 0.6},
	}
	for _, s := range bad {
		if _, err := DesignFIR(s); err == nil {
			t.Errorf("spec %+v should fail", s)
		}
	}
}

func TestFIRLinearPhase(t *testing.T) {
	// Windowed-sinc designs are symmetric -> linear phase.
	f, _ := DesignFIR(FIRSpec{Band: Lowpass, Taps: 33, F1: 0.25, Window: dsp.Hann})
	n := len(f.B)
	for i := 0; i < n/2; i++ {
		if math.Abs(f.B[i]-f.B[n-1-i]) > 1e-12 {
			t.Fatalf("taps not symmetric at %d", i)
		}
	}
}

func TestDesignIIRButterworthLowpass(t *testing.T) {
	f, err := DesignIIR(IIRSpec{Kind: Butterworth, Band: Lowpass, Order: 4, F1: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsStable() {
		t.Fatal("unstable design")
	}
	if math.Abs(f.DCGain()-1) > 1e-6 {
		t.Fatalf("DC gain %g", f.DCGain())
	}
	// -3 dB at the cutoff.
	if g := cmplx.Abs(f.ResponseAt(0.2)); math.Abs(g-math.Sqrt(0.5)) > 0.01 {
		t.Fatalf("cutoff gain %g, want %g", g, math.Sqrt(0.5))
	}
	if g := cmplx.Abs(f.ResponseAt(0.4)); g > 0.05 {
		t.Fatalf("stopband gain %g", g)
	}
}

func TestDesignIIRButterworthHighpass(t *testing.T) {
	f, err := DesignIIR(IIRSpec{Kind: Butterworth, Band: Highpass, Order: 5, F1: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsStable() {
		t.Fatal("unstable design")
	}
	if g := cmplx.Abs(f.ResponseAt(0.45)); math.Abs(g-1) > 0.01 {
		t.Fatalf("passband gain %g", g)
	}
	if g := cmplx.Abs(f.ResponseAt(0.02)); g > 0.01 {
		t.Fatalf("stopband gain %g", g)
	}
	if g := cmplx.Abs(f.ResponseAt(0.15)); math.Abs(g-math.Sqrt(0.5)) > 0.01 {
		t.Fatalf("cutoff gain %g", g)
	}
}

func TestDesignIIRButterworthBandpass(t *testing.T) {
	f, err := DesignIIR(IIRSpec{Kind: Butterworth, Band: Bandpass, Order: 3, F1: 0.15, F2: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsStable() {
		t.Fatal("unstable design")
	}
	if f.Order() != 6 {
		t.Fatalf("bandpass order %d, want 6", f.Order())
	}
	// Geometric center of the warped band has unit gain.
	center := geomCenterDigital(0.15, 0.25)
	if g := cmplx.Abs(f.ResponseAt(center)); math.Abs(g-1) > 0.02 {
		t.Fatalf("center gain %g at F=%g", g, center)
	}
	for _, F := range []float64{0.03, 0.47} {
		if g := cmplx.Abs(f.ResponseAt(F)); g > 0.02 {
			t.Fatalf("stopband gain %g at F=%g", g, F)
		}
	}
}

// geomCenterDigital maps the analog geometric center of a prewarped band
// back to the digital axis.
func geomCenterDigital(F1, F2 float64) float64 {
	w1 := 2 * math.Tan(math.Pi*F1)
	w2 := 2 * math.Tan(math.Pi*F2)
	w0 := math.Sqrt(w1 * w2)
	return math.Atan(w0/2) / math.Pi
}

func TestDesignIIRChebyshev(t *testing.T) {
	f, err := DesignIIR(IIRSpec{Kind: Chebyshev1, Band: Lowpass, Order: 5, F1: 0.2, RippleDB: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsStable() {
		t.Fatal("unstable design")
	}
	// Odd order: DC gain is 1; passband ripple bounded by 0.5 dB.
	if math.Abs(f.DCGain()-1) > 1e-6 {
		t.Fatalf("DC gain %g", f.DCGain())
	}
	minRip := 1.0
	for F := 0.0; F <= 0.2; F += 0.002 {
		g := cmplx.Abs(f.ResponseAt(F))
		if g < minRip {
			minRip = g
		}
		if g > 1.001 {
			t.Fatalf("passband gain %g > 1 at F=%g", g, F)
		}
	}
	wantFloor := math.Pow(10, -0.5/20)
	if minRip < wantFloor-0.005 {
		t.Fatalf("ripple floor %g below %g", minRip, wantFloor)
	}
	if g := cmplx.Abs(f.ResponseAt(0.4)); g > 0.01 {
		t.Fatalf("stopband gain %g", g)
	}
}

func TestDesignIIRChebyshevEvenOrderDC(t *testing.T) {
	rip := 1.0
	f, err := DesignIIR(IIRSpec{Kind: Chebyshev1, Band: Lowpass, Order: 4, F1: 0.2, RippleDB: rip})
	if err != nil {
		t.Fatal(err)
	}
	// Even-order Chebyshev-I sits at -ripple dB at DC.
	want := math.Pow(10, -rip/20)
	if math.Abs(f.DCGain()-want) > 0.01 {
		t.Fatalf("even-order DC gain %g, want %g", f.DCGain(), want)
	}
}

func TestDesignIIRErrors(t *testing.T) {
	bad := []IIRSpec{
		{Kind: Butterworth, Band: Lowpass, Order: 0, F1: 0.2},
		{Kind: Butterworth, Band: Lowpass, Order: 4, F1: 0},
		{Kind: Butterworth, Band: Bandpass, Order: 4, F1: 0.3, F2: 0.2},
	}
	for _, s := range bad {
		if _, err := DesignIIR(s); err == nil {
			t.Errorf("spec %+v should fail", s)
		}
	}
}

func TestIsStable(t *testing.T) {
	stable := Filter{B: []float64{1}, A: []float64{1, -0.5}}
	if !stable.IsStable() {
		t.Fatal("pole at 0.5 should be stable")
	}
	unstable := Filter{B: []float64{1}, A: []float64{1, -1.5}}
	if unstable.IsStable() {
		t.Fatal("pole at 1.5 should be unstable")
	}
	edge := Filter{B: []float64{1}, A: []float64{1, -1}}
	if edge.IsStable() {
		t.Fatal("pole on unit circle should be reported unstable")
	}
	fir := NewFIR([]float64{1, 2, 3}, "")
	if !fir.IsStable() {
		t.Fatal("FIR always stable")
	}
}

func TestIsStableQuickRandomSecondOrder(t *testing.T) {
	// For a1, a2 the stability triangle is |a2|<1 and |a1|<1+a2.
	fn := func(a1, a2 float64) bool {
		a1 = math.Mod(a1, 3)
		a2 = math.Mod(a2, 3)
		if math.IsNaN(a1) || math.IsNaN(a2) {
			return true
		}
		f := Filter{B: []float64{1}, A: []float64{1, a1, a2}}
		inTriangle := math.Abs(a2) < 1 && math.Abs(a1) < 1+a2
		return f.IsStable() == inTriangle
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStateMatchesResponseSteadyStateSine(t *testing.T) {
	// Drive an IIR with a sine; after transients the amplitude must match
	// |H(F)|.
	f, _ := DesignIIR(IIRSpec{Kind: Butterworth, Band: Lowpass, Order: 4, F1: 0.2})
	F := 0.1
	st := NewState(f)
	n := 4000
	// Project the steady-state half onto the quadrature pair at F to
	// recover the amplitude regardless of sampling phase.
	var sc, ss float64
	half := n / 2
	for i := 0; i < n; i++ {
		y := st.Step(math.Sin(2 * math.Pi * F * float64(i)))
		if i >= half {
			ph := 2 * math.Pi * F * float64(i)
			sc += y * math.Cos(ph)
			ss += y * math.Sin(ph)
		}
	}
	amp := 2 * math.Hypot(sc, ss) / float64(n-half)
	want := cmplx.Abs(f.ResponseAt(F))
	if math.Abs(amp-want) > 0.01 {
		t.Fatalf("steady-state amplitude %g, want %g", amp, want)
	}
}

func TestBuildFIRBankCount(t *testing.T) {
	bank, err := BuildFIRBank(DefaultFIRBank())
	if err != nil {
		t.Fatal(err)
	}
	if len(bank) != 147 {
		t.Fatalf("FIR bank size %d, want 147", len(bank))
	}
	for _, f := range bank {
		if !f.IsFIR() {
			t.Fatalf("non-FIR in FIR bank: %v", f)
		}
	}
}

func TestBuildIIRBankCountAndStability(t *testing.T) {
	bank, err := BuildIIRBank(DefaultIIRBank())
	if err != nil {
		t.Fatal(err)
	}
	if len(bank) != 147 {
		t.Fatalf("IIR bank size %d, want 147", len(bank))
	}
	for i, f := range bank {
		if !f.IsStable() {
			t.Fatalf("bank member %d unstable: %v", i, f)
		}
	}
}

func TestBandTypeStrings(t *testing.T) {
	if Lowpass.String() != "lowpass" || Highpass.String() != "highpass" ||
		Bandpass.String() != "bandpass" || Bandstop.String() != "bandstop" {
		t.Fatal("band type strings")
	}
	if Butterworth.String() != "butterworth" || Chebyshev1.String() != "chebyshev1" {
		t.Fatal("IIR kind strings")
	}
}

func BenchmarkStateStepIIR10(b *testing.B) {
	f, _ := DesignIIR(IIRSpec{Kind: Butterworth, Band: Lowpass, Order: 10, F1: 0.2})
	st := NewState(f)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Step(float64(i&1) - 0.5)
	}
}

func BenchmarkDesignIIRBandpass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = DesignIIR(IIRSpec{Kind: Butterworth, Band: Bandpass, Order: 5, F1: 0.1, F2: 0.2})
	}
}
