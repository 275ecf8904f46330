package systems

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/filter"
	"repro/internal/fxsim"
	"repro/internal/stats"
)

func TestSingleFilterGraphAndSim(t *testing.T) {
	f, err := filter.DesignFIR(filter.FIRSpec{Band: filter.Lowpass, Taps: 33, F1: 0.2, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	sys := &SingleFilter{Filt: f}
	const d = 10
	g, err := sys.Graph(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewPSDEvaluator(512).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sys.Simulate(d, SimConfig{Samples: 300000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ed := stats.Ed(sim.Power, res.Power)
	if math.Abs(ed) > 0.05 {
		t.Fatalf("single FIR Ed %v, want within 5%%", core.EdPercent(ed))
	}
}

func TestSingleFilterRejectsBadD(t *testing.T) {
	sys := &SingleFilter{Filt: filter.NewFIR([]float64{1}, "")}
	if _, err := sys.Graph(0); err == nil {
		t.Fatal("d=0 should fail")
	}
	if _, err := sys.Simulate(99, SimConfig{}); err == nil {
		t.Fatal("d=99 should fail")
	}
}

func TestFreqFilterAnalyticMatchesRealOverlapSave(t *testing.T) {
	// The central Fig. 2 check: the analytical PSD estimate (with derived
	// FFT-domain sources) must land near the genuine overlap-save
	// fixed-point simulation.
	sys, err := NewFreqFilter()
	if err != nil {
		t.Fatal(err)
	}
	const d = 12
	g, err := sys.Graph(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewPSDEvaluator(1024).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sys.Simulate(d, SimConfig{Samples: 1 << 19, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ed := stats.Ed(sim.Power, res.Power)
	if math.Abs(ed) > 0.20 {
		t.Fatalf("freq-filter Ed %v, want within 20%% (paper: ~10%%)", core.EdPercent(ed))
	}
}

func TestFreqFilterGraphSimulableByFxsim(t *testing.T) {
	// The abstract graph with Override sources must also run under fxsim
	// and agree with the analytical estimate (self-consistency of the
	// derived model).
	sys, err := NewFreqFilter()
	if err != nil {
		t.Fatal(err)
	}
	const d = 12
	g, err := sys.Graph(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewPSDEvaluator(1024).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fxsim.Run(g, fxsim.Config{Samples: 1 << 18, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ed := stats.Ed(sim.Power, res.Power)
	if math.Abs(ed) > 0.10 {
		t.Fatalf("abstract-graph Ed %v, want within 10%%", core.EdPercent(ed))
	}
}

func TestFreqFilterNoiseDominatedByExpectedSources(t *testing.T) {
	sys, err := NewFreqFilter()
	if err != nil {
		t.Fatal(err)
	}
	g, err := sys.Graph(12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewPSDEvaluator(256).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSource) != 5 {
		t.Fatalf("expected 5 sources, got %d", len(res.PerSource))
	}
	var total float64
	for _, s := range res.PerSource {
		if s.Variance < 0 {
			t.Fatalf("negative variance for %s", s.Name)
		}
		total += s.Variance
	}
	if math.Abs(total-res.Variance) > 1e-15 {
		t.Fatal("per-source variances must sum to the total")
	}
}

func TestFreqFilterValidate(t *testing.T) {
	bad := &FreqFilter{FFTSize: 4}
	if _, err := bad.Graph(12); err == nil {
		t.Fatal("unconfigured freq-filter should fail")
	}
	sys, _ := NewFreqFilter()
	sys.FFTSize = 4 // smaller than the 9-tap HP
	if _, err := sys.Graph(12); err == nil {
		t.Fatal("FFT size < filter length should fail")
	}
}

func TestDWTGraphMatchesSimulation(t *testing.T) {
	sys := NewDWT()
	const d = 12
	g, err := sys.Graph(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewPSDEvaluator(1024).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sys.Simulate(d, SimConfig{Samples: 1 << 18, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ed := stats.Ed(sim.Power, res.Power)
	if math.Abs(ed) > 0.15 {
		t.Fatalf("DWT Ed %v, want within 15%% (paper: ~1%%)", core.EdPercent(ed))
	}
}

func TestDWTAgnosticMuchWorse(t *testing.T) {
	// Table II's headline: the PSD-agnostic estimate misses by a large
	// factor on the DWT while the proposed method stays tight.
	sys := NewDWT()
	const d = 12
	g, err := sys.Graph(d)
	if err != nil {
		t.Fatal(err)
	}
	n := 1024
	prop, err := core.NewPSDEvaluator(n).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	agn, err := core.NewAgnosticEvaluator(n).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sys.Simulate(d, SimConfig{Samples: 1 << 18, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	edProp := math.Abs(stats.Ed(sim.Power, prop.Power))
	edAgn := math.Abs(stats.Ed(sim.Power, agn.Power))
	if edAgn < 3*edProp {
		t.Fatalf("agnostic Ed %.2f%% should be far worse than proposed %.2f%%",
			100*edAgn, 100*edProp)
	}
}

func TestDWTScalesWithD(t *testing.T) {
	// Error power should drop ~4x per extra fractional bit, analytically.
	sys := NewDWT()
	ev := core.NewPSDEvaluator(256)
	var prev float64
	for _, d := range []int{8, 12, 16} {
		g, err := sys.Graph(d)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ev.Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 {
			ratio := prev / res.Power
			if ratio < 200 || ratio > 300 {
				t.Fatalf("power ratio per 4 bits = %g, want ~256", ratio)
			}
		}
		prev = res.Power
	}
}

func TestSimConfigDefaults(t *testing.T) {
	c := SimConfig{}.withDefaults()
	if c.Samples <= 0 {
		t.Fatal("defaults must set sample count")
	}
}

func TestSystemNames(t *testing.T) {
	ff, _ := NewFreqFilter()
	if ff.Name() == "" || NewDWT().Name() == "" {
		t.Fatal("names must be non-empty")
	}
	sf := &SingleFilter{Filt: filter.NewFIR([]float64{1}, "unit"), Label: "custom"}
	if sf.Name() != "custom" {
		t.Fatal("label should win")
	}
}

func TestDecimatorAnalyticMatchesSimulation(t *testing.T) {
	sys := NewDecimator()
	const d = 12
	g, err := sys.Graph(d)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewPSDEvaluator(1024).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sys.Simulate(d, SimConfig{Samples: 1 << 18, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ed := stats.Ed(sim.Power, est.Power)
	if math.Abs(ed) > 0.10 {
		t.Fatalf("decimator Ed %v", core.EdPercent(ed))
	}
}

func TestInterpolatorAnalyticMatchesSimulation(t *testing.T) {
	sys := NewInterpolator()
	const d = 12
	g, err := sys.Graph(d)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewPSDEvaluator(1024).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sys.Simulate(d, SimConfig{Samples: 1 << 18, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ed := stats.Ed(sim.Power, est.Power)
	if math.Abs(ed) > 0.10 {
		t.Fatalf("interpolator Ed %v", core.EdPercent(ed))
	}
}

func TestMultirateSystemErrors(t *testing.T) {
	if _, err := (&Decimator{Factor: 1}).Graph(12); err == nil {
		t.Fatal("factor 1 decimator should fail")
	}
	if _, err := (&Interpolator{Factor: 1}).Graph(12); err == nil {
		t.Fatal("factor 1 interpolator should fail")
	}
	if _, err := NewDecimator().Graph(0); err == nil {
		t.Fatal("d=0 should fail")
	}
}

// TestPowerSEMatchesSeedSpread: Outcome.PowerSE is an honest error bar —
// across 20 seeds the spread of Power lies within 0.5–2x the median
// reported standard error.
func TestPowerSEMatchesSeedSpread(t *testing.T) {
	systems, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range systems[:2] { // fir-lp31(tab1), iir-bw4(tab1)
		var powers, ses []float64
		for seed := int64(1); seed <= 20; seed++ {
			sim, err := sys.Simulate(12, SimConfig{Samples: 1 << 16, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			powers = append(powers, sim.Power)
			ses = append(ses, sim.PowerSE)
		}
		spread := math.Sqrt(stats.Variance(powers) * 20 / 19)
		se := stats.Summarize(ses).Median
		if r := spread / se; r < 0.5 || r > 2 {
			t.Errorf("%s: Power spread %g over 20 seeds vs median PowerSE %g (ratio %.2f)", sys.Name(), spread, se, r)
		} else {
			t.Logf("%s: spread/SE %.2f", sys.Name(), r)
		}
	}
}
