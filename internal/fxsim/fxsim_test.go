package fxsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dsp"
	"repro/internal/filter"
	"repro/internal/fixed"
	"repro/internal/qnoise"
	"repro/internal/sfg"
)

// quantizedInputChain builds in(quantized at d) -> filt -> out.
func quantizedInputChain(f filter.Filter, d int, mode fixed.RoundMode) *sfg.Graph {
	g := sfg.New()
	in := g.Input("in")
	fb := g.Filter("filt", f)
	out := g.Output("out")
	g.Chain(in, fb, out)
	g.SetNoise(in, qnoise.Source{Mode: mode, Frac: d})
	return g
}

func TestRunErrorsOnBadGraph(t *testing.T) {
	g := sfg.New()
	g.Input("in") // no output
	if _, err := Run(g, Config{Samples: 100}); err == nil {
		t.Fatal("invalid graph should fail")
	}
}

func TestRunZeroSamples(t *testing.T) {
	g := quantizedInputChain(filter.NewFIR([]float64{1}, ""), 8, fixed.RoundNearest)
	if _, err := Run(g, Config{Samples: 0}); err == nil {
		t.Fatal("zero samples should fail")
	}
}

func TestIdentityGraphErrorIsQuantizationError(t *testing.T) {
	// in(quantized) -> unit filter -> out: the measured error must match
	// the PQN moments of the input quantizer.
	const d = 8
	for _, mode := range []fixed.RoundMode{fixed.Truncate, fixed.RoundNearest} {
		g := quantizedInputChain(filter.NewFIR([]float64{1}, "unit"), d, mode)
		o, err := Run(g, Config{Samples: 200000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		m := qnoise.Continuous(mode, d)
		if math.Abs(o.Mean-m.Mean) > 0.02*math.Ldexp(1, -d) {
			t.Errorf("%v: mean %g vs model %g", mode, o.Mean, m.Mean)
		}
		if math.Abs(o.Variance-m.Variance) > 0.03*m.Variance {
			t.Errorf("%v: variance %g vs model %g", mode, o.Variance, m.Variance)
		}
	}
}

func TestFilteredNoisePowerMatchesTheory(t *testing.T) {
	// Input quantization noise through an FIR: error power must equal
	// mu^2*(sum h)^2 + sigma^2 * sum h^2.
	f, err := filter.DesignFIR(filter.FIRSpec{Band: filter.Lowpass, Taps: 33, F1: 0.2, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	const d = 10
	g := quantizedInputChain(f, d, fixed.Truncate)
	o, err := Run(g, Config{Samples: 400000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := qnoise.Continuous(fixed.Truncate, d)
	wantVar := m.Variance * f.PowerGain()
	wantMean := m.Mean * f.DCGain()
	if math.Abs(o.Variance-wantVar) > 0.05*wantVar {
		t.Errorf("variance %g vs theory %g", o.Variance, wantVar)
	}
	if math.Abs(o.Mean-wantMean) > 0.02*math.Abs(wantMean) {
		t.Errorf("mean %g vs theory %g", o.Mean, wantMean)
	}
}

func TestDeterministicSeed(t *testing.T) {
	g := quantizedInputChain(filter.NewFIR([]float64{0.5, 0.5}, ""), 8, fixed.RoundNearest)
	a, err := Run(g, Config{Samples: 5000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Config{Samples: 5000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Power != b.Power {
		t.Fatal("same seed must reproduce the same run")
	}
	c, _ := Run(g, Config{Samples: 5000, Seed: 43})
	if a.Power == c.Power {
		t.Fatal("different seed should change the run")
	}
}

// TestRunParallelCoversEverySample: Run measures exactly Samples samples,
// whether they fill part of one chunk or several whole ones.
func TestRunParallelCoversEverySample(t *testing.T) {
	g := quantizedInputChain(filter.NewFIR([]float64{0.5, 0.5}, ""), 8, fixed.RoundNearest)
	for _, samples := range []int{1001, 10, 1 << 16} {
		o, err := Run(g, Config{Samples: samples, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if o.Samples != samples {
			t.Errorf("%d samples measured %d", samples, o.Samples)
		}
	}
}

func TestInputKinds(t *testing.T) {
	g := quantizedInputChain(filter.NewFIR([]float64{1}, ""), 10, fixed.RoundNearest)
	o, err := Run(g, Config{Samples: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if o.Power <= 0 {
		t.Error("zero error power")
	}
	if o.RefPower <= 0 || o.RefPower > 1.1 {
		t.Errorf("implausible signal power %g", o.RefPower)
	}
}

func TestGenerateBounds(t *testing.T) {
	sig := make([]float64, 10000)
	draw(randNew(7), sig)
	for i, v := range sig {
		if v < -1.001 || v > 1.001 {
			t.Fatalf("sample %d = %g out of range", i, v)
		}
	}
}

func TestCustomInputSignals(t *testing.T) {
	g := quantizedInputChain(filter.NewFIR([]float64{1}, ""), 4, fixed.Truncate)
	in := g.Inputs()[0]
	sig := []float64{0.1, 0.2, 0.3, 0.4}
	o, err := Run(g, Config{InputSignals: map[sfg.NodeID][]float64{in: sig}, KeepError: true})
	if err != nil {
		t.Fatal(err)
	}
	if o.Samples != 4 {
		t.Fatalf("samples %d", o.Samples)
	}
	// Truncation at 4 bits: 0.1 -> 0.0625, err -0.0375 etc.
	if math.Abs(o.Err[0]-(-0.0375)) > 1e-12 {
		t.Fatalf("err[0] = %g", o.Err[0])
	}
}

func TestErrPSDRequested(t *testing.T) {
	g := quantizedInputChain(filter.NewFIR([]float64{0.5, 0.5}, ""), 8, fixed.RoundNearest)
	o, err := Run(g, Config{Samples: 50000, Seed: 5, PSDBins: 64, Window: dsp.Hann})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.ErrPSD.Bins) != 64 {
		t.Fatalf("PSD bins %d", len(o.ErrPSD.Bins))
	}
	if math.Abs(o.ErrPSD.Variance()-o.Variance) > 0.1*o.Variance {
		t.Fatalf("PSD variance %g vs sample variance %g", o.ErrPSD.Variance(), o.Variance)
	}
}

func TestMultirateGraphRuns(t *testing.T) {
	// in -> down2 -> up2 -> out with input quantization: error power is
	// preserved through down, divided by 2 through up.
	g := sfg.New()
	in := g.Input("in")
	dn := g.Down("down2", 2)
	up := g.Up("up2", 2)
	out := g.Output("out")
	g.Chain(in, dn, up, out)
	const d = 8
	g.SetNoise(in, qnoise.Source{Mode: fixed.RoundNearest, Frac: d})
	o, err := Run(g, Config{Samples: 200000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	m := qnoise.Continuous(fixed.RoundNearest, d)
	want := m.Variance / 2
	if math.Abs(o.Variance-want) > 0.05*want {
		t.Fatalf("variance %g, want %g", o.Variance, want)
	}
}

func TestAdderGraph(t *testing.T) {
	// Two parallel unit paths from one input to an adder double the signal
	// and (coherently) double the error.
	g := sfg.New()
	in := g.Input("in")
	g1 := g.Gain("g1", 1)
	g2 := g.Gain("g2", 1)
	a := g.Adder("sum")
	out := g.Output("out")
	g.Connect(in, g1)
	g.Connect(in, g2)
	g.Connect(g1, a)
	g.Connect(g2, a)
	g.Connect(a, out)
	const d = 8
	g.SetNoise(in, qnoise.Source{Mode: fixed.RoundNearest, Frac: d})
	o, err := Run(g, Config{Samples: 100000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m := qnoise.Continuous(fixed.RoundNearest, d)
	want := 4 * m.Variance // coherent amplitude doubling -> 4x power
	if math.Abs(o.Variance-want) > 0.05*want {
		t.Fatalf("variance %g, want %g", o.Variance, want)
	}
}

func TestDelayNode(t *testing.T) {
	g := sfg.New()
	in := g.Input("in")
	dl := g.Delay("z3", 3)
	out := g.Output("out")
	g.Chain(in, dl, out)
	g.SetNoise(in, qnoise.Source{Mode: fixed.Truncate, Frac: 6})
	sig := []float64{0.9, 0.8, 0.7, 0.6, 0.5}
	inID := g.Inputs()[0]
	o, err := Run(g, Config{InputSignals: map[sfg.NodeID][]float64{inID: sig}, KeepError: true})
	if err != nil {
		t.Fatal(err)
	}
	// First 3 outputs are zeros in both runs -> zero error.
	for i := 0; i < 3; i++ {
		if o.Err[i] != 0 {
			t.Fatalf("err[%d] = %g, want 0", i, o.Err[i])
		}
	}
	if o.Err[3] == 0 {
		t.Fatal("delayed quantization error should appear at sample 3")
	}
}

func TestSQNRPositiveForSaneSystem(t *testing.T) {
	g := quantizedInputChain(filter.NewFIR([]float64{1}, ""), 12, fixed.RoundNearest)
	o, err := Run(g, Config{Samples: 50000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s := o.SQNR(); s < 60 || s > 90 {
		t.Fatalf("SQNR %g dB implausible for d=12", s)
	}
}

func BenchmarkRunFIR64_100k(b *testing.B) {
	f, _ := filter.DesignFIR(filter.FIRSpec{Band: filter.Lowpass, Taps: 64, F1: 0.2, Window: dsp.Hamming})
	g := quantizedInputChain(f, 12, fixed.RoundNearest)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, Config{Samples: 100000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// randNew avoids importing math/rand at every call site in tests.
func randNew(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestRunRejectsCustomNode(t *testing.T) {
	g := sfg.New()
	in := g.Input("in")
	cu := g.Custom("cu", func(n int) []complex128 { return make([]complex128, n) })
	g.Chain(in, cu, g.Output("out"))
	if _, err := Run(g, Config{Samples: 100}); err == nil || !strings.Contains(err.Error(), "cannot simulate custom node") {
		t.Fatalf("custom node: %v", err)
	}
}
