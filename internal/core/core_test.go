package core

import (
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/filter"
	"repro/internal/fixed"
	"repro/internal/fxsim"
	"repro/internal/qnoise"
	"repro/internal/sfg"
	"repro/internal/stats"
)

func mustFIR(t testing.TB, spec filter.FIRSpec) filter.Filter {
	t.Helper()
	f, err := filter.DesignFIR(spec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustIIR(t testing.TB, spec filter.IIRSpec) filter.Filter {
	t.Helper()
	f, err := filter.DesignIIR(spec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// singleFilterGraph: in(d bits) -> f -> out.
func singleFilterGraph(f filter.Filter, d int) *sfg.Graph {
	g := sfg.New()
	in := g.Input("in")
	fb := g.Filter("filt", f)
	out := g.Output("out")
	g.Chain(in, fb, out)
	g.SetNoise(in, qnoise.Source{Mode: fixed.Truncate, Frac: d})
	return g
}

func TestPSDEvaluatorSingleSourceClosedForm(t *testing.T) {
	// Noise through one FIR: variance_out = sigma^2 sum h^2, mean_out =
	// mu * sum h. PSD evaluator must be exact up to grid sampling of |H|^2,
	// which is exact for white input (Parseval on the N-point grid equals
	// sum h^2 when N >= taps).
	f := mustFIR(t, filter.FIRSpec{Band: filter.Lowpass, Taps: 33, F1: 0.2, Window: dsp.Hamming})
	const d = 12
	g := singleFilterGraph(f, d)
	res, err := NewPSDEvaluator(256).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	m := qnoise.Continuous(fixed.Truncate, d)
	wantVar := m.Variance * f.PowerGain()
	wantMean := m.Mean * f.DCGain()
	if math.Abs(res.Variance-wantVar) > 1e-12*wantVar {
		t.Fatalf("variance %g, want %g", res.Variance, wantVar)
	}
	if math.Abs(res.Mean-wantMean) > 1e-12*math.Abs(wantMean) {
		t.Fatalf("mean %g, want %g", res.Mean, wantMean)
	}
	if math.Abs(res.Power-(wantMean*wantMean+wantVar)) > 1e-12*res.Power {
		t.Fatalf("power %g", res.Power)
	}
	if len(res.PerSource) != 1 || res.PerSource[0].Name != "in" {
		t.Fatalf("per-source %+v", res.PerSource)
	}
}

func TestFlatEqualsPSDOnSingleBlock(t *testing.T) {
	// The paper: "classical flat estimation applied to the same filters
	// gives exactly the same results ... showing their strict equivalence
	// on an elementary filtering block."
	f := mustFIR(t, filter.FIRSpec{Band: filter.Highpass, Taps: 41, F1: 0.22, Window: dsp.Hamming})
	g := singleFilterGraph(f, 10)
	p, err := NewPSDEvaluator(128).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := NewFlatEvaluator().Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Power-fl.Power) > 1e-12*p.Power {
		t.Fatalf("psd %g vs flat %g", p.Power, fl.Power)
	}
}

func TestAgnosticEqualsPSDOnSingleBlockWhiteSource(t *testing.T) {
	// With a single white source into a single block the agnostic method
	// is also exact (no coloration to lose) -- both collapse to
	// sigma^2 * mean |H|^2 on the same grid.
	f := mustIIR(t, filter.IIRSpec{Kind: filter.Butterworth, Band: filter.Lowpass, Order: 4, F1: 0.2})
	g := singleFilterGraph(f, 14)
	n := 512
	p, err := NewPSDEvaluator(n).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgnosticEvaluator(n).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Variance-a.Variance) > 1e-12*p.Variance {
		t.Fatalf("psd %g vs agnostic %g", p.Variance, a.Variance)
	}
}

func TestAgnosticLosesColorationOnCascade(t *testing.T) {
	// Two cascaded band filters with overlapping stopbands: the agnostic
	// method treats the (heavily colored) intermediate noise as white and
	// misestimates the second stage. The PSD method tracks it.
	lp := mustFIR(t, filter.FIRSpec{Band: filter.Lowpass, Taps: 63, F1: 0.1, Window: dsp.Hamming})
	hp := mustFIR(t, filter.FIRSpec{Band: filter.Highpass, Taps: 63, F1: 0.3, Window: dsp.Hamming})
	g := sfg.New()
	in := g.Input("in")
	f1 := g.Filter("lp", lp)
	f2 := g.Filter("hp", hp)
	out := g.Output("out")
	g.Chain(in, f1, f2, out)
	const d = 10
	g.SetNoise(in, qnoise.Source{Mode: fixed.RoundNearest, Frac: d})

	n := 1024
	p, err := NewPSDEvaluator(n).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgnosticEvaluator(n).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth by simulation.
	sim, err := fxsim.Run(g, fxsim.Config{Samples: 600000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	edPSD := stats.Ed(sim.Power, p.Power)
	edAgn := stats.Ed(sim.Power, a.Power)
	if math.Abs(edPSD) > 0.25 {
		t.Fatalf("PSD method Ed %v too large", EdPercent(edPSD))
	}
	if math.Abs(edAgn) < 5*math.Abs(edPSD) {
		t.Fatalf("agnostic Ed %v should be far worse than PSD Ed %v",
			EdPercent(edAgn), EdPercent(edPSD))
	}
}

func TestPSDEvaluatorMatchesSimulationIIR(t *testing.T) {
	f := mustIIR(t, filter.IIRSpec{Kind: filter.Butterworth, Band: filter.Lowpass, Order: 6, F1: 0.15})
	const d = 12
	g := singleFilterGraph(f, d)
	res, err := NewPSDEvaluator(1024).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fxsim.Run(g, fxsim.Config{Samples: 400000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ed := stats.Ed(sim.Power, res.Power)
	if math.Abs(ed) > 0.25 {
		t.Fatalf("IIR Ed %v outside +-25%%", EdPercent(ed))
	}
}

func TestCoherentReconvergence(t *testing.T) {
	// One source splits into two paths (gain 1 and gain -1) that re-add:
	// the noise cancels exactly. Power-domain (decohered) propagation
	// would report 2x; the coherent evaluator must report ~0.
	g := sfg.New()
	in := g.Input("in")
	gp := g.Gain("pos", 1)
	gm := g.Gain("neg", -1)
	a := g.Adder("sum")
	out := g.Output("out")
	g.Connect(in, gp)
	g.Connect(in, gm)
	g.Connect(gp, a)
	g.Connect(gm, a)
	g.Connect(a, out)
	g.SetNoise(in, qnoise.Source{Mode: fixed.RoundNearest, Frac: 8})
	res, err := NewPSDEvaluator(64).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Power > 1e-20 {
		t.Fatalf("cancelling paths should yield ~0 power, got %g", res.Power)
	}
	// Simulation agrees.
	sim, err := fxsim.Run(g, fxsim.Config{Samples: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Power > 1e-20 {
		t.Fatalf("simulated power %g, want 0", sim.Power)
	}
	// The agnostic baseline, blind to phase, overestimates: 2 sigma^2.
	agn, err := NewAgnosticEvaluator(64).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	m := qnoise.Continuous(fixed.RoundNearest, 8)
	if math.Abs(agn.Variance-2*m.Variance) > 1e-15 {
		t.Fatalf("agnostic variance %g, want %g", agn.Variance, 2*m.Variance)
	}
}

func TestDelayedReconvergenceCombFilter(t *testing.T) {
	// Source splits into direct and 1-sample-delayed paths: comb filter
	// H = 1 + z^-1, power gain 2 for white noise -- but with spectral
	// shape 4cos^2(pi F). Verify total and spectrum against simulation.
	g := sfg.New()
	in := g.Input("in")
	gp := g.Gain("direct", 1)
	dl := g.Delay("z1", 1)
	a := g.Adder("sum")
	out := g.Output("out")
	g.Connect(in, gp)
	g.Connect(in, dl)
	g.Connect(gp, a)
	g.Connect(dl, a)
	g.Connect(a, out)
	const d = 9
	g.SetNoise(in, qnoise.Source{Mode: fixed.RoundNearest, Frac: d})
	n := 64
	res, err := NewPSDEvaluator(n).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	m := qnoise.Continuous(fixed.RoundNearest, d)
	if math.Abs(res.Variance-2*m.Variance) > 1e-15 {
		t.Fatalf("comb variance %g, want %g", res.Variance, 2*m.Variance)
	}
	// Spectrum proportional to |1+e^{-jw}|^2.
	for k := 0; k < n; k++ {
		w := 2 * math.Pi * float64(k) / float64(n)
		want := m.Variance / float64(n) * (2 + 2*math.Cos(w))
		if math.Abs(res.PSD.Bins[k]-want) > 1e-15 {
			t.Fatalf("bin %d: %g want %g", k, res.PSD.Bins[k], want)
		}
	}
}

func TestMultirateDownUp(t *testing.T) {
	// in -> down2 -> up2 -> out: analytic variance = sigma^2/2 (matches
	// the fxsim test of the same structure).
	g := sfg.New()
	in := g.Input("in")
	dn := g.Down("d2", 2)
	up := g.Up("u2", 2)
	out := g.Output("out")
	g.Chain(in, dn, up, out)
	const d = 8
	g.SetNoise(in, qnoise.Source{Mode: fixed.RoundNearest, Frac: d})
	res, err := NewPSDEvaluator(128).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	m := qnoise.Continuous(fixed.RoundNearest, d)
	if math.Abs(res.Variance-m.Variance/2) > 1e-15 {
		t.Fatalf("variance %g, want %g", res.Variance, m.Variance/2)
	}
	// Flat method must refuse multirate graphs.
	if _, err := NewFlatEvaluator().Evaluate(g); err == nil {
		t.Fatal("flat evaluator should reject multirate graphs")
	}
}

func TestMultipleSourcesSuperpose(t *testing.T) {
	// Two sources along a chain: output power = sum of propagated powers
	// plus the coherent mean cross-term.
	f1 := mustFIR(t, filter.FIRSpec{Band: filter.Lowpass, Taps: 17, F1: 0.2, Window: dsp.Hamming})
	f2 := mustFIR(t, filter.FIRSpec{Band: filter.Lowpass, Taps: 17, F1: 0.3, Window: dsp.Hamming})
	g := sfg.New()
	in := g.Input("in")
	b1 := g.Filter("f1", f1)
	b2 := g.Filter("f2", f2)
	out := g.Output("out")
	g.Chain(in, b1, b2, out)
	const d = 10
	g.SetNoise(in, qnoise.Source{Mode: fixed.Truncate, Frac: d})
	g.SetNoise(b1, qnoise.Source{Mode: fixed.Truncate, Frac: d})

	res, err := NewPSDEvaluator(512).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSource) != 2 {
		t.Fatalf("per-source count %d", len(res.PerSource))
	}
	// Mean cross-term: total mean is the sum of both signed means.
	wantMean := res.PerSource[0].Mean + res.PerSource[1].Mean
	if math.Abs(res.Mean-wantMean) > 1e-15 {
		t.Fatalf("mean %g vs %g", res.Mean, wantMean)
	}
	wantVar := res.PerSource[0].Variance + res.PerSource[1].Variance
	if math.Abs(res.Variance-wantVar) > 1e-12*wantVar {
		t.Fatalf("variance %g vs %g", res.Variance, wantVar)
	}
	// Cross-validate with simulation.
	sim, err := fxsim.Run(g, fxsim.Config{Samples: 400000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ed := stats.Ed(sim.Power, res.Power)
	if math.Abs(ed) > 0.15 {
		t.Fatalf("Ed %v outside +-15%%", EdPercent(ed))
	}
}

func TestFlatMatchesSimulationTwoSources(t *testing.T) {
	f1 := mustFIR(t, filter.FIRSpec{Band: filter.Lowpass, Taps: 21, F1: 0.15, Window: dsp.Hann})
	g := sfg.New()
	in := g.Input("in")
	b1 := g.Filter("f1", f1)
	out := g.Output("out")
	g.Chain(in, b1, out)
	const d = 9
	g.SetNoise(in, qnoise.Source{Mode: fixed.Truncate, Frac: d})
	g.SetNoise(b1, qnoise.Source{Mode: fixed.Truncate, Frac: d})
	res, err := NewFlatEvaluator().Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fxsim.Run(g, fxsim.Config{Samples: 400000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ed := stats.Ed(sim.Power, res.Power)
	if math.Abs(ed) > 0.1 {
		t.Fatalf("flat Ed %v outside +-10%%", EdPercent(ed))
	}
}

func TestEvaluatorsRejectCyclicGraph(t *testing.T) {
	g := sfg.New()
	in := g.Input("in")
	a := g.Adder("a")
	ga := g.Gain("g", 0.5)
	out := g.Output("out")
	g.Connect(in, a)
	g.Connect(a, ga)
	g.Connect(ga, a)
	g.Connect(a, out)
	g.SetNoise(in, qnoise.Source{Mode: fixed.Truncate, Frac: 8})
	for _, ev := range []Evaluator{NewPSDEvaluator(64), NewAgnosticEvaluator(64), NewFlatEvaluator()} {
		if _, err := ev.Evaluate(g); err == nil {
			t.Errorf("%s should reject cyclic graph", ev.Name())
		}
	}
}

func TestLoopReducedGraphMatchesIIRBlock(t *testing.T) {
	// Structural feedback y = x + a*y[n-1] after BreakLoops must evaluate
	// identically to the equivalent IIR block.
	a := 0.7
	const d = 10
	build := func() *sfg.Graph {
		g := sfg.New()
		in := g.Input("in")
		add := g.Adder("add")
		dl := g.Delay("z1", 1)
		ga := g.Gain("a", a)
		out := g.Output("out")
		g.Connect(in, add)
		g.Connect(add, dl)
		g.Connect(dl, ga)
		g.Connect(ga, add)
		g.Connect(add, out)
		g.SetNoise(in, qnoise.Source{Mode: fixed.RoundNearest, Frac: d})
		return g
	}
	g := build()
	if _, err := g.BreakLoops(); err != nil {
		t.Fatal(err)
	}
	res, err := NewPSDEvaluator(4096).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	ref := sfg.New()
	rin := ref.Input("in")
	rf := ref.Filter("iir", filter.Filter{B: []float64{1}, A: []float64{1, -a}})
	rout := ref.Output("out")
	ref.Chain(rin, rf, rout)
	ref.SetNoise(rin, qnoise.Source{Mode: fixed.RoundNearest, Frac: d})
	want, err := NewPSDEvaluator(4096).Evaluate(ref)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Power-want.Power) > 1e-9*want.Power {
		t.Fatalf("loop-reduced power %g vs IIR block %g", res.Power, want.Power)
	}
}

func TestResultPSDConsistency(t *testing.T) {
	f := mustFIR(t, filter.FIRSpec{Band: filter.Lowpass, Taps: 17, F1: 0.25, Window: dsp.Hamming})
	g := singleFilterGraph(f, 8)
	res, err := NewPSDEvaluator(128).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PSD.Variance()-res.Variance) > 1e-15 {
		t.Fatal("PSD variance must equal result variance")
	}
	if res.PSD.Mean != res.Mean {
		t.Fatal("PSD mean must equal result mean")
	}
}

func TestEvaluateErrorsOnTinyN(t *testing.T) {
	g := singleFilterGraph(filter.NewFIR([]float64{1}, ""), 8)
	if _, err := NewPSDEvaluator(1).Evaluate(g); err == nil {
		t.Fatal("NPSD < 2 should fail")
	}
	if _, err := NewAgnosticEvaluator(0).Evaluate(g); err == nil {
		t.Fatal("NPSD < 2 should fail")
	}
}

func TestEdPercent(t *testing.T) {
	if EdPercent(0.123) != "+12.30%" {
		t.Fatalf("got %q", EdPercent(0.123))
	}
	if EdPercent(math.NaN()) != "n/a" {
		t.Fatal("NaN formatting")
	}
}

func TestNames(t *testing.T) {
	if NewPSDEvaluator(16).Name() != "psd(n=16)" {
		t.Fatal("psd name")
	}
	if NewAgnosticEvaluator(16).Name() != "agnostic(n=16)" {
		t.Fatal("agnostic name")
	}
	if NewFlatEvaluator().Name() != "flat" {
		t.Fatal("flat name")
	}
}

func BenchmarkPSDEvaluate1024(b *testing.B) {
	f, _ := filter.DesignIIR(filter.IIRSpec{Kind: filter.Butterworth, Band: filter.Lowpass, Order: 8, F1: 0.2})
	g := singleFilterGraph(f, 12)
	ev := NewPSDEvaluator(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(g); err != nil {
			b.Fatal(err)
		}
	}
}

func TestObserveAtIntermediatePSD(t *testing.T) {
	// Evaluate the error spectrum at an internal node: after the first
	// filter the input-quantization noise is shaped by |H1|^2 only.
	f1 := mustFIR(t, filter.FIRSpec{Band: filter.Lowpass, Taps: 21, F1: 0.15, Window: dsp.Hamming})
	f2 := mustFIR(t, filter.FIRSpec{Band: filter.Highpass, Taps: 21, F1: 0.3, Window: dsp.Hamming})
	g := sfg.New()
	in := g.Input("in")
	b1 := g.Filter("f1", f1)
	b2 := g.Filter("f2", f2)
	out := g.Output("out")
	g.Chain(in, b1, b2, out)
	const d = 10
	g.SetNoise(in, qnoise.Source{Mode: fixed.RoundNearest, Frac: d})

	// The observation graph at f1: the same source and first filter, with
	// an output probe in place of everything downstream.
	obs := sfg.New()
	oin := obs.Input("in")
	obs.Chain(oin, obs.Filter("f1", f1), obs.Output("probe"))
	obs.SetNoise(oin, qnoise.Source{Mode: fixed.RoundNearest, Frac: d})
	res, err := NewPSDEvaluator(256).Evaluate(obs)
	if err != nil {
		t.Fatal(err)
	}
	m := qnoise.Continuous(fixed.RoundNearest, d)
	want := m.Variance * f1.PowerGain()
	if math.Abs(res.Variance-want) > 1e-12*want {
		t.Fatalf("intermediate variance %g, want %g", res.Variance, want)
	}
	// And it differs from the full-chain output power.
	full, err := NewPSDEvaluator(256).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.Variance-res.Variance) < 1e-15 {
		t.Fatal("intermediate and output spectra should differ")
	}
}
