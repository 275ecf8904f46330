package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dsp"
	"repro/internal/filter"
	"repro/internal/qnoise"
	"repro/internal/sfg"
	"repro/internal/systems"
)

// engineTestGraphs builds the example graphs the equivalence tests sweep:
// an LTI cascade, a reconvergent comb (coherent recombination), and the
// paper's two evaluation systems including the multirate DWT.
func engineTestGraphs(t *testing.T) map[string]*sfg.Graph {
	t.Helper()
	out := make(map[string]*sfg.Graph)

	lp := mustFIR(t, filter.FIRSpec{Band: filter.Lowpass, Taps: 31, F1: 0.1, Window: dsp.Hamming})
	hp := mustFIR(t, filter.FIRSpec{Band: filter.Highpass, Taps: 31, F1: 0.3, Window: dsp.Hamming})
	g := sfg.New()
	in := g.Input("in")
	f1 := g.Filter("lp", lp)
	f2 := g.Filter("hp", hp)
	o := g.Output("out")
	g.Chain(in, f1, f2, o)
	g.SetNoise(in, qnoise.Source{Mode: systems.Mode, Frac: 16})
	g.SetNoise(f1, qnoise.Source{Mode: systems.Mode, Frac: 16})
	g.SetNoise(f2, qnoise.Source{Mode: systems.Mode, Frac: 16})
	out["cascade"] = g

	comb := sfg.New()
	cin := comb.Input("in")
	direct := comb.Gain("direct", 1)
	dl := comb.Delay("z1", 1)
	sum := comb.Adder("sum")
	cout := comb.Output("out")
	comb.Connect(cin, direct)
	comb.Connect(cin, dl)
	comb.Connect(direct, sum)
	comb.Connect(dl, sum)
	comb.Connect(sum, cout)
	comb.SetNoise(cin, qnoise.Source{Mode: systems.Mode, Frac: 12})
	out["comb"] = comb

	dwt, err := systems.NewDWT().Graph(14)
	if err != nil {
		t.Fatal(err)
	}
	out["dwt"] = dwt

	ff, err := systems.NewFreqFilter()
	if err != nil {
		t.Fatal(err)
	}
	fg, err := ff.Graph(14)
	if err != nil {
		t.Fatal(err)
	}
	out["freqfilter"] = fg
	return out
}

func resultsEqual(t *testing.T, label string, a, b *Result, tol float64) {
	t.Helper()
	close := func(x, y float64) bool {
		if x == y {
			return true
		}
		scale := math.Max(math.Abs(x), math.Abs(y))
		return math.Abs(x-y) <= tol*scale
	}
	if !close(a.Power, b.Power) || !close(a.Mean, b.Mean) || !close(a.Variance, b.Variance) {
		t.Fatalf("%s: results diverge: (P=%g M=%g V=%g) vs (P=%g M=%g V=%g)",
			label, a.Power, a.Mean, a.Variance, b.Power, b.Mean, b.Variance)
	}
	if len(a.PSD.Bins) != len(b.PSD.Bins) {
		t.Fatalf("%s: PSD grids differ: %d vs %d", label, len(a.PSD.Bins), len(b.PSD.Bins))
	}
	for k := range a.PSD.Bins {
		if !close(a.PSD.Bins[k], b.PSD.Bins[k]) {
			t.Fatalf("%s: PSD bin %d differs: %g vs %g", label, k, a.PSD.Bins[k], b.PSD.Bins[k])
		}
	}
	if len(a.PerSource) != len(b.PerSource) {
		t.Fatalf("%s: per-source lengths differ", label)
	}
	for i := range a.PerSource {
		if a.PerSource[i].Name != b.PerSource[i].Name ||
			!close(a.PerSource[i].Variance, b.PerSource[i].Variance) ||
			!close(a.PerSource[i].Mean, b.PerSource[i].Mean) {
			t.Fatalf("%s: per-source %d differs: %+v vs %+v", label, i, a.PerSource[i], b.PerSource[i])
		}
	}
}

// TestEngineMatchesPSDEvaluator: the transfer-cached engine against the
// one-shot reference evaluator (full propagation). The cached path folds
// source moments in after the propagated unit profile instead of before
// it, so rounding may differ in the last ulp on graphs that decohere
// before the output — the documented contract is 1e-12 relative.
func TestEngineMatchesPSDEvaluator(t *testing.T) {
	for name, g := range engineTestGraphs(t) {
		eng := NewEngine(256, 4)
		ev := NewPSDEvaluator(256)
		for rep := 0; rep < 3; rep++ { // repeated calls hit the warm plan
			got, err := eng.Evaluate(g)
			if err != nil {
				t.Fatalf("%s: engine: %v", name, err)
			}
			want, err := ev.Evaluate(g)
			if err != nil {
				t.Fatalf("%s: evaluator: %v", name, err)
			}
			resultsEqual(t, name, got, want, 1e-12)
		}
	}
}

// TestEvaluateAssignmentMatchesMutatedGraph: scoring an Assignment
// out-of-band must equal writing the widths into the graph and evaluating.
func TestEvaluateAssignmentMatchesMutatedGraph(t *testing.T) {
	for name, g := range engineTestGraphs(t) {
		eng := NewEngine(128, 2)
		base := AssignmentOf(g)
		alt := base.Clone()
		i := 0
		for id := range alt {
			alt[id] = 6 + i%7
			i++
		}
		got, err := eng.EvaluateAssignment(g, alt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Mutate, evaluate directly through the one-shot reference,
		// restore; the cached engine agrees within the 1e-12 contract.
		alt.Apply(g)
		want, err := NewPSDEvaluator(128).Evaluate(g)
		base.Apply(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resultsEqual(t, name, got, want, 1e-12)
		// The assignment evaluation must not have disturbed the graph.
		for _, id := range g.NoiseSources() {
			if g.Node(id).Noise.Frac != base[id] {
				t.Fatalf("%s: graph width mutated by assignment evaluation", name)
			}
		}
	}
}

// TestEvaluateBatchMatchesSequential: a batch fanned across workers returns
// exactly what per-assignment sequential evaluation returns, in order.
func TestEvaluateBatchMatchesSequential(t *testing.T) {
	for name, g := range engineTestGraphs(t) {
		serial := NewEngine(128, 1)
		parallel := NewEngine(128, 8)
		base := AssignmentOf(g)
		var batch []Assignment
		for _, id := range g.NoiseSources() {
			for delta := -2; delta <= 2; delta++ {
				a := base.Clone()
				a[id] += delta
				batch = append(batch, a)
			}
		}
		want, err := serial.EvaluateBatch(g, batch)
		if err != nil {
			t.Fatalf("%s: serial batch: %v", name, err)
		}
		got, err := parallel.EvaluateBatch(g, batch)
		if err != nil {
			t.Fatalf("%s: parallel batch: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: batch sizes differ", name)
		}
		for i := range got {
			resultsEqual(t, name, got[i], want[i], 0)
		}
	}
}

// TestEngineConcurrentEvaluate hammers one engine from many goroutines —
// mixed Evaluate / EvaluateAssignment / EvaluateBatch on a shared read-only
// graph — and checks every result against the serial reference. Under
// -race this asserts concurrent evaluations never interleave state.
func TestEngineConcurrentEvaluate(t *testing.T) {
	graphs := engineTestGraphs(t)
	g := graphs["dwt"]
	eng := NewEngine(256, 4)
	base := AssignmentOf(g)
	// Serial references from the engine itself: the hammering below must
	// reproduce these bit-for-bit at any interleaving.
	want, err := eng.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	// One alternative assignment with its serial reference.
	alt := base.Clone()
	for id := range alt {
		alt[id] = 9
	}
	altWant, err := eng.EvaluateAssignment(g, alt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				switch (w + rep) % 3 {
				case 0:
					r, err := eng.Evaluate(g)
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					if r.Power != want.Power {
						t.Errorf("worker %d: power %g, want %g", w, r.Power, want.Power)
						return
					}
				case 1:
					r, err := eng.EvaluateAssignment(g, alt)
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					if r.Power != altWant.Power {
						t.Errorf("worker %d: alt power %g, want %g", w, r.Power, altWant.Power)
						return
					}
				default:
					rs, err := eng.EvaluateBatch(g, []Assignment{base, alt})
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					if rs[0].Power != want.Power || rs[1].Power != altWant.Power {
						t.Errorf("worker %d: batch powers diverge", w)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEngineInvalidate: structural edits are picked up after Invalidate.
func TestEngineInvalidate(t *testing.T) {
	g := sfg.New()
	in := g.Input("in")
	gn := g.Gain("g", 1)
	o := g.Output("out")
	g.Chain(in, gn, o)
	g.SetNoise(in, qnoise.Source{Mode: systems.Mode, Frac: 10})
	eng := NewEngine(64, 2)
	before, err := eng.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	// Structural change: crank the gain; the cached plan still has the old
	// response until invalidated.
	g.Node(gn).Gain = 2
	stale, err := eng.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Power != before.Power {
		t.Fatalf("expected stale plan to reuse old response")
	}
	eng.Invalidate(g)
	fresh, err := eng.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fresh.Power-4*before.Power) > 1e-12*fresh.Power {
		t.Fatalf("after invalidate power %g, want %g", fresh.Power, 4*before.Power)
	}
}

func TestEngineErrors(t *testing.T) {
	g := sfg.New()
	in := g.Input("in")
	o := g.Output("out")
	g.Connect(in, o)
	g.SetNoise(in, qnoise.Source{Mode: systems.Mode, Frac: 8})
	if _, err := NewEngine(1, 1).Evaluate(g); err == nil {
		t.Fatal("NPSD < 2 should fail")
	}
	if _, err := NewEngine(64, 1).EvaluateBatch(g, nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
	// Cyclic graph must fail like the one-shot evaluator does.
	cyc := sfg.New()
	cin := cyc.Input("in")
	a := cyc.Adder("a")
	d := cyc.Delay("z", 1)
	co := cyc.Output("out")
	cyc.Connect(cin, a)
	cyc.Connect(a, d)
	cyc.Connect(d, a)
	cyc.Connect(a, co)
	cyc.SetNoise(cin, qnoise.Source{Mode: systems.Mode, Frac: 8})
	if _, err := NewEngine(64, 1).Evaluate(cyc); err == nil {
		t.Fatal("cyclic graph should fail")
	}
}

// BenchmarkEngineEvaluate compares the plan-cached engine against the
// throwaway evaluator on the DWT graph — the per-call win every optimizer
// step collects.
func BenchmarkEngineEvaluate(b *testing.B) {
	g, err := systems.NewDWT().Graph(14)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("engine", func(b *testing.B) {
		eng := NewEngine(1024, 1)
		if _, err := eng.Evaluate(g); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Evaluate(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		ev := NewPSDEvaluator(1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ev.Evaluate(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}
