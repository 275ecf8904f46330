package repro

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/filter"
	"repro/internal/fxsim"
	"repro/internal/qnoise"
	"repro/internal/rangean"
	"repro/internal/sfg"
	"repro/internal/stats"
	"repro/internal/systems"
	"repro/internal/wlopt"
)

// TestEndToEndDesignFlow walks the complete fixed-point refinement flow the
// paper motivates: design a system, bound its dynamic range, size the
// integer bits, optimize the fractional bits against a noise budget with
// the fast PSD evaluator, and confirm the result by simulation.
func TestEndToEndDesignFlow(t *testing.T) {
	// 1. Design: a two-stage band-shaping chain.
	lp, err := filter.DesignFIR(filter.FIRSpec{Band: filter.Lowpass, Taps: 41, F1: 0.22, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	bp, err := filter.DesignIIR(filter.IIRSpec{Kind: filter.Butterworth, Band: filter.Bandpass, Order: 3, F1: 0.05, F2: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	g := sfg.New()
	in := g.Input("in")
	f1 := g.Filter("lp", lp)
	f2 := g.Filter("bp", bp)
	out := g.Output("out")
	g.Chain(in, f1, f2, out)
	g.SetNoise(in, qnoise.Source{Mode: systems.Mode, Frac: 16})
	g.SetNoise(f1, qnoise.Source{Mode: systems.Mode, Frac: 16})
	g.SetNoise(f2, qnoise.Source{Mode: systems.Mode, Frac: 16})

	// 2. Range analysis -> integer bits for every signal.
	plan, err := rangean.Plan(g, rangean.PlanOptions{
		InputRanges:  map[sfg.NodeID]rangean.Interval{in: rangean.NewInterval(-1, 1)},
		TargetSQNRdB: 70,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, wl := range plan {
		if wl.Int < 1 || wl.Int > 8 {
			t.Fatalf("node %d integer bits %d implausible", id, wl.Int)
		}
	}

	// 3. Fractional-bit optimization against a noise budget.
	const budget = 1e-8
	res, err := wlopt.Optimize(g, wlopt.Options{Budget: budget, MinFrac: 6, MaxFrac: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.Power > budget {
		t.Fatalf("optimizer result %g over budget", res.Power)
	}

	// 4. Confirm by simulation: the analytical budget holds within the
	// paper's sub-one-bit margin.
	sim, err := fxsim.Run(g, fxsim.Config{Samples: 1 << 18, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ed := stats.Ed(sim.Power, res.Power)
	if !stats.SubOneBit(ed) {
		t.Fatalf("final Ed %s outside the sub-one-bit band", core.EdPercent(ed))
	}
	if sim.Power > 4*budget {
		t.Fatalf("simulated power %g far over budget %g", sim.Power, budget)
	}
}

// TestEndToEndAllSystemsAllEvaluators cross-checks every benchmark system
// against every applicable evaluator in one sweep — the repository's
// smoke-level contract.
func TestEndToEndAllSystemsAllEvaluators(t *testing.T) {
	ff, err := systems.NewFreqFilter()
	if err != nil {
		t.Fatal(err)
	}
	syss := []systems.System{ff, systems.NewDWT(), systems.NewDecimator(), systems.NewInterpolator()}
	const d = 12
	for _, sys := range syss {
		g, err := sys.Graph(d)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		sim, err := sys.Simulate(d, systems.SimConfig{Samples: 1 << 17, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		prop, err := core.NewPSDEvaluator(512).Evaluate(g)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		ed := stats.Ed(sim.Power, prop.Power)
		if math.Abs(ed) > 0.25 {
			t.Errorf("%s: proposed Ed %s too large", sys.Name(), core.EdPercent(ed))
		}
		if _, err := core.NewAgnosticEvaluator(512).Evaluate(g); err != nil {
			t.Errorf("%s: agnostic: %v", sys.Name(), err)
		}
		if !g.IsMultirate() {
			if _, err := core.NewFlatEvaluator().Evaluate(g); err != nil {
				t.Errorf("%s: flat: %v", sys.Name(), err)
			}
		}
	}
}

// TestEndToEndStreamingAtScale runs a paper-scale-adjacent streaming
// simulation (2^21 samples in 8k chunks) of the DWT system and checks it
// against the analytical estimate — exercising the constant-memory path the
// big experiments rely on.
func TestEndToEndStreamingAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming scale test")
	}
	sys := systems.NewDWT()
	const d = 14
	g, err := sys.Graph(d)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewPSDEvaluator(1024).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fxsim.Run(g, fxsim.Config{Samples: 1 << 21, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ed := stats.Ed(sim.Power, est.Power)
	if math.Abs(ed) > 0.05 {
		t.Fatalf("streaming-scale Ed %s, want within 5%%", core.EdPercent(ed))
	}
}

// TestSpectrumRendering exercises the ASCII renderer on a real error
// spectrum end to end.
func TestSpectrumRendering(t *testing.T) {
	ff, err := systems.NewFreqFilter()
	if err != nil {
		t.Fatal(err)
	}
	g, err := ff.Graph(12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewPSDEvaluator(128).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.PSD.RenderASCII(&sb, 16, 60)
	out := sb.String()
	if !strings.Contains(out, "PSD (peak") {
		t.Fatal("render missing header")
	}
	if strings.Count(out, "\n") < 10 {
		t.Fatalf("render too short:\n%s", out)
	}
}
