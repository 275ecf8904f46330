package psd

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
	"repro/internal/fft"
	"repro/internal/filter"
)

// White returns the PSD of a white noise source with the given mean and
// variance: every bin carries variance/n (Eq. 10 with the mean kept
// separate).
func White(mean, variance float64, n int) PSD {
	p := New(n)
	p.Mean = mean
	per := variance / float64(n)
	for i := range p.Bins {
		p.Bins[i] = per
	}
	return p
}

// MustEstimate is Estimate panicking on error, for known-good arguments.
func MustEstimate(x []float64, opts EstimateOptions) PSD {
	p, err := Estimate(x, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// TestWhiteConstruction checks the White fixture the tests below build on:
// every bin carries variance/n and the mean stays separate.
func TestWhiteConstruction(t *testing.T) {
	p := White(0.5, 2.0, 64)
	if len(p.Bins) != 64 {
		t.Fatalf("bins %d", len(p.Bins))
	}
	if p.Mean != 0.5 {
		t.Fatalf("mean %g", p.Mean)
	}
	if math.Abs(p.Variance()-2.0) > 1e-12 {
		t.Fatalf("variance %g", p.Variance())
	}
	if power := p.Mean*p.Mean + p.Variance(); math.Abs(power-(0.25+2.0)) > 1e-12 {
		t.Fatalf("power %g", power)
	}
	for _, b := range p.Bins {
		if math.Abs(b-2.0/64) > 1e-15 {
			t.Fatalf("bin %g, want %g", b, 2.0/64)
		}
	}
}

// TestScale: a gain block is an LTI block with the flat response g, so it
// scales the mean by g and the variance by g^2.
func TestScale(t *testing.T) {
	p := White(1, 4, 16)
	resp := make([]complex128, len(p.Bins))
	for i := range resp {
		resp[i] = -3
	}
	p.ApplyLTIInPlace(resp)
	if p.Mean != -3 {
		t.Fatalf("mean %g", p.Mean)
	}
	if math.Abs(p.Variance()-36) > 1e-12 {
		t.Fatalf("variance %g", p.Variance())
	}
}

func TestApplyLTIWhiteThroughFilter(t *testing.T) {
	// White noise through an FIR: output variance = sigma^2 * sum h^2.
	f := filter.NewFIR([]float64{0.5, 0.25, -0.125}, "t")
	n := 256
	resp := f.Response(n)
	in := White(0, 1, n)
	out := in.Clone()
	out.ApplyLTIInPlace(resp)
	want := f.PowerGain()
	if math.Abs(out.Variance()-want) > 1e-9 {
		t.Fatalf("variance %g, want %g", out.Variance(), want)
	}
}

func TestApplyLTIMeanGain(t *testing.T) {
	f := filter.NewFIR([]float64{0.25, 0.25, 0.25, 0.25}, "ma")
	n := 64
	in := White(2, 1, n)
	out := in.Clone()
	out.ApplyLTIInPlace(f.Response(n))
	if math.Abs(out.Mean-2*f.DCGain()) > 1e-12 {
		t.Fatalf("mean %g, want %g", out.Mean, 2*f.DCGain())
	}
}

// TestApplyMagnitude2MatchesApplyLTI: scaling the cached |H|^2 profile
// with ScaleInto (the transfer-cache path) must agree with propagating the
// PSD through the complex response.
func TestApplyMagnitude2MatchesApplyLTI(t *testing.T) {
	f := filter.Filter{B: []float64{1, -0.5}, A: []float64{1, -0.25}}
	n := 128
	resp := f.Response(n)
	mag2 := fft.Magnitude2(resp)
	in := White(0.3, 1.7, n)
	a := in.Clone()
	a.ApplyLTIInPlace(resp)
	b := New(n)
	b.Mean = in.Mean * f.DCGain()
	ScaleInto(b.Bins, mag2, 1.7/float64(n))
	if math.Abs(a.Variance()-b.Variance()) > 1e-10 || math.Abs(a.Mean-b.Mean) > 1e-12 {
		t.Fatal("magnitude path disagrees with response path")
	}
}

func TestAddUncorrelated(t *testing.T) {
	a := White(1, 2, 32)
	b := White(-0.5, 3, 32)
	s := a.Clone()
	s.AddInPlace(b)
	if s.Mean != 0.5 {
		t.Fatalf("mean %g", s.Mean)
	}
	if math.Abs(s.Variance()-5) > 1e-12 {
		t.Fatalf("variance %g", s.Variance())
	}
	// Mean cross-term appears in total power: (mu_a+mu_b)^2 != mu_a^2+mu_b^2.
	if power := s.Mean*s.Mean + s.Variance(); math.Abs(power-(0.25+5)) > 1e-12 {
		t.Fatalf("power %g", power)
	}
}

func TestDownsamplePreservesVarianceWhite(t *testing.T) {
	p := White(0.7, 3, 128)
	for _, m := range []int{1, 2, 3, 4, 8} {
		d := p.DownsampleInto(New(len(p.Bins)), m)
		if math.Abs(d.Variance()-3) > 1e-9 {
			t.Fatalf("M=%d: variance %g, want 3", m, d.Variance())
		}
		if d.Mean != 0.7 {
			t.Fatalf("M=%d: mean %g", m, d.Mean)
		}
	}
}

func TestDownsampleAliasesColoredSpectrum(t *testing.T) {
	// Narrow-band power at F0 appears at 2*F0 after decimation by 2.
	n := 128
	p := New(n)
	k0 := 10
	p.Bins[k0] = 1
	p.Bins[n-k0] = 1
	d := p.DownsampleInto(New(n), 2)
	if math.Abs(d.Variance()-2) > 1e-9 {
		t.Fatalf("variance %g, want 2", d.Variance())
	}
	// Power concentrated near bin 2*k0 (interpolation spreads slightly).
	var around float64
	for k := 2*k0 - 2; k <= 2*k0+2; k++ {
		around += d.Bins[k]
	}
	if around < 0.9 {
		t.Fatalf("aliased power near bin %d is %g, want ~1", 2*k0, around)
	}
}

func TestUpsampleImagesSpectrum(t *testing.T) {
	n := 64
	p := New(n)
	p.Mean = 1
	p.Bins[4] = 2
	u := p.UpsampleInto(New(n), 2)
	if math.Abs(u.Mean-0.5) > 1e-12 {
		t.Fatalf("mean %g, want 0.5", u.Mean)
	}
	if math.Abs(u.Variance()-1) > 1e-12 {
		t.Fatalf("variance %g, want 1", u.Variance())
	}
	// Images at bins 2 and 2+n/2 = 34 (the output bins whose doubled band
	// covers input bin 4), each carrying (1/L^2)*B_in[4] = 0.5.
	if math.Abs(u.Bins[2]-0.5) > 1e-12 || math.Abs(u.Bins[34]-0.5) > 1e-12 {
		t.Fatalf("images at 2/34: %g/%g", u.Bins[2], u.Bins[34])
	}
}

func TestUpsampleWhiteStaysWhite(t *testing.T) {
	p := White(0, 4, 64)
	u := p.UpsampleInto(New(64), 4)
	if math.Abs(u.Variance()-1) > 1e-12 {
		t.Fatalf("variance %g, want 1", u.Variance())
	}
	for _, b := range u.Bins {
		if math.Abs(b-1.0/64) > 1e-15 {
			t.Fatalf("bin %g not white", b)
		}
	}
}

func TestDownUpsampleRoundtripWhiteVariance(t *testing.T) {
	fn := func(seed int64, msel uint8) bool {
		m := 2 + int(msel)%3
		p := White(0, 1, 96)
		r := p.DownsampleInto(New(96), m).UpsampleInto(New(96), m)
		return math.Abs(r.Variance()-1.0/float64(m)) < 1e-9
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestResamplePreservesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := New(128)
	for i := range p.Bins {
		p.Bins[i] = rng.Float64()
	}
	v := p.Variance()
	for _, m := range []int{16, 64, 128, 256, 1024} {
		r := p.Resample(m)
		if math.Abs(r.Variance()-v) > 1e-9*v {
			t.Fatalf("resample to %d: variance %g, want %g", m, r.Variance(), v)
		}
		if len(r.Bins) != m {
			t.Fatalf("bins %d", len(r.Bins))
		}
	}
}

func TestPeriodogramVarianceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64() + 2
	}
	// One rectangular segment spanning the whole signal is the plain
	// periodogram.
	p := MustEstimate(x, EstimateOptions{Bins: len(x)})
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	var variance float64
	for _, v := range x {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(len(x))
	if math.Abs(p.Variance()-variance) > 1e-9*variance {
		t.Fatalf("periodogram variance %g vs sample %g", p.Variance(), variance)
	}
	if math.Abs(p.Mean-mean) > 1e-12 {
		t.Fatalf("periodogram mean %g vs %g", p.Mean, mean)
	}
}

func TestEstimateWhiteNoiseFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 1<<17)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	p := MustEstimate(x, EstimateOptions{Bins: 64})
	if math.Abs(p.Variance()-1) > 0.02 {
		t.Fatalf("variance %g, want ~1", p.Variance())
	}
	want := 1.0 / 64
	for k, b := range p.Bins {
		if math.Abs(b-want) > 0.3*want {
			t.Fatalf("bin %d = %g, want ~%g (not flat)", k, b, want)
		}
	}
}

func TestEstimateFilteredNoiseMatchesAnalytic(t *testing.T) {
	// Filtered white noise: estimated PSD must match sigma^2 |H|^2 / N.
	rng := rand.New(rand.NewSource(4))
	f, err := filter.DesignFIR(filter.FIRSpec{Band: filter.Lowpass, Taps: 31, F1: 0.15, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	st := filter.NewState(f)
	x := make([]float64, 1<<17)
	for i := range x {
		x[i] = st.Step(rng.NormFloat64())
	}
	nb := 64
	est := MustEstimate(x, EstimateOptions{Bins: nb, Window: dsp.Hann, Overlap: 0.5})
	ana := White(0, 1, nb)
	ana.ApplyLTIInPlace(f.Response(nb))
	if math.Abs(est.Variance()-ana.Variance()) > 0.05*ana.Variance() {
		t.Fatalf("variance est %g vs analytic %g", est.Variance(), ana.Variance())
	}
	// Compare the passband bins (stopband bins are tiny and leakage-
	// dominated in the estimate).
	for k := 0; k < nb; k++ {
		if ana.Bins[k] < 0.05*ana.Bins[0] {
			continue
		}
		rel := math.Abs(est.Bins[k]-ana.Bins[k]) / ana.Bins[k]
		if rel > 0.25 {
			t.Fatalf("bin %d: est %g vs analytic %g (rel %g)", k, est.Bins[k], ana.Bins[k], rel)
		}
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := Estimate(make([]float64, 10), EstimateOptions{Bins: 1}); err == nil {
		t.Fatal("bins < 2 should fail")
	}
	if _, err := Estimate(make([]float64, 10), EstimateOptions{Bins: 16}); err == nil {
		t.Fatal("short signal should fail")
	}
	if _, err := Estimate(make([]float64, 100), EstimateOptions{Bins: 16, Overlap: 0.95}); err == nil {
		t.Fatal("overlap > 0.9 should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := White(1, 2, 8)
	c := p.Clone()
	c.Bins[0] = 99
	c.Mean = -1
	if p.Bins[0] == 99 || p.Mean == -1 {
		t.Fatal("clone aliases parent")
	}
}

func TestDownsampleIdentityFactor1(t *testing.T) {
	p := White(0.5, 1, 32)
	d := p.DownsampleInto(New(32), 1)
	if !slices.Equal(d.Bins, p.Bins) || d.Mean != p.Mean {
		t.Fatal("factor-1 downsample should be identity")
	}
}

func TestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0) },
		func() { White(0, 1, 8).DownsampleInto(New(8), 0) },
		func() { White(0, 1, 8).UpsampleInto(New(8), 0) },
		func() { p := White(0, 1, 8); p.AddInPlace(White(0, 1, 4)) },
		func() { p := White(0, 1, 8); p.ApplyLTIInPlace(make([]complex128, 4)) },
		func() { White(0, 1, 8).Resample(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Chain property: LTI then add then scale behaves linearly in power.
func TestQuickPowerNonNegative(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(32)
		p.Mean = rng.NormFloat64()
		for i := range p.Bins {
			p.Bins[i] = rng.Float64()
		}
		f := filter.Filter{B: []float64{rng.NormFloat64(), rng.NormFloat64()}, A: []float64{1}}
		p.ApplyLTIInPlace(f.Response(32))
		out := p.DownsampleInto(New(32), 2).UpsampleInto(New(32), 2)
		g := rng.NormFloat64()
		out.Mean *= g
		ScaleInto(out.Bins, out.Bins, g*g)
		return out.Mean*out.Mean+out.Variance() >= 0 && out.Variance() >= -1e-15
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Validate the decimation rule against a Monte-Carlo measurement of
// downsampled filtered noise.
func TestDownsampleMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f, err := filter.DesignFIR(filter.FIRSpec{Band: filter.Lowpass, Taps: 21, F1: 0.2, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	st := filter.NewState(f)
	nSamp := 1 << 18
	y := make([]float64, nSamp)
	for i := range y {
		y[i] = st.Step(rng.NormFloat64())
	}
	dec := make([]float64, 0, len(y)/2)
	for i := 0; i < len(y); i += 2 {
		dec = append(dec, y[i])
	}
	nb := 64
	est := MustEstimate(dec, EstimateOptions{Bins: nb, Window: dsp.Hann, Overlap: 0.5})
	ana := White(0, 1, nb)
	ana.ApplyLTIInPlace(f.Response(nb))
	ana = ana.DownsampleInto(New(nb), 2)
	if math.Abs(est.Variance()-ana.Variance()) > 0.05*ana.Variance() {
		t.Fatalf("variance est %g vs analytic %g", est.Variance(), ana.Variance())
	}
	// Spectral shape: compare in aggregate (relative L1 distance).
	var l1, ref float64
	for k := 0; k < nb; k++ {
		l1 += math.Abs(est.Bins[k] - ana.Bins[k])
		ref += ana.Bins[k]
	}
	if l1/ref > 0.15 {
		t.Fatalf("aliased spectrum mismatch: L1/ref = %g", l1/ref)
	}
}

// Validate the imaging rule likewise.
func TestUpsampleMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f, err := filter.DesignFIR(filter.FIRSpec{Band: filter.Lowpass, Taps: 21, F1: 0.2, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	st := filter.NewState(f)
	nSamp := 1 << 17
	y := make([]float64, nSamp)
	for i := range y {
		y[i] = st.Step(rng.NormFloat64())
	}
	up := make([]float64, 2*len(y))
	for i, v := range y {
		up[2*i] = v
	}
	nb := 64
	est := MustEstimate(up, EstimateOptions{Bins: nb, Window: dsp.Hann, Overlap: 0.5})
	ana := White(0, 1, nb)
	ana.ApplyLTIInPlace(f.Response(nb))
	ana = ana.UpsampleInto(New(nb), 2)
	if math.Abs(est.Variance()-ana.Variance()) > 0.05*ana.Variance() {
		t.Fatalf("variance est %g vs analytic %g", est.Variance(), ana.Variance())
	}
	var l1, ref float64
	for k := 0; k < nb; k++ {
		l1 += math.Abs(est.Bins[k] - ana.Bins[k])
		ref += ana.Bins[k]
	}
	if l1/ref > 0.15 {
		t.Fatalf("imaged spectrum mismatch: L1/ref = %g", l1/ref)
	}
}

func BenchmarkApplyLTI1024(b *testing.B) {
	f, _ := filter.DesignIIR(filter.IIRSpec{Kind: filter.Butterworth, Band: filter.Lowpass, Order: 6, F1: 0.2})
	resp := f.Response(1024)
	p := White(0.01, 1e-6, 1024)
	q := New(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Mean = p.Mean
		copy(q.Bins, p.Bins)
		q.ApplyLTIInPlace(resp)
	}
}

func BenchmarkEstimateWelch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 1<<15)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MustEstimate(x, EstimateOptions{Bins: 1024, Window: dsp.Hann, Overlap: 0.5})
	}
}

func TestFusedKernels(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	if got := ScaleInto(dst, src, 0.5); &got[0] != &dst[0] {
		t.Fatal("ScaleInto must return dst")
	}
	for i, want := range []float64{0.5, 1, 1.5, 2} {
		if dst[i] != want {
			t.Fatalf("ScaleInto[%d] = %g, want %g", i, dst[i], want)
		}
	}
	// In-place scaling is allowed.
	ScaleInto(dst, dst, 2)
	for i, want := range src {
		if dst[i] != want {
			t.Fatalf("in-place ScaleInto[%d] = %g, want %g", i, dst[i], want)
		}
	}
	sum := make([]float64, 4)
	AddInto(sum, src, dst)
	for i := range sum {
		if sum[i] != 2*src[i] {
			t.Fatalf("AddInto[%d] = %g, want %g", i, sum[i], 2*src[i])
		}
	}
	// Accumulation may alias the destination with an input.
	AddInto(sum, sum, src)
	if sum[0] != 3 || sum[3] != 12 {
		t.Fatalf("aliased AddInto = %v", sum)
	}
	if got := Sum(src); got != 10 {
		t.Fatalf("Sum = %g, want 10", got)
	}
	// Sum shares the canonical summation order with PSD.Variance.
	p := PSD{Bins: src}
	if Sum(src) != p.Variance() {
		t.Fatal("Sum diverges from Variance")
	}
	for _, bad := range []func(){
		func() { ScaleInto(dst[:2], src, 1) },
		func() { AddInto(sum, src[:2], dst) },
		func() { AddInto(sum[:2], src, dst) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("length mismatch should panic")
				}
			}()
			bad()
		}()
	}
}
