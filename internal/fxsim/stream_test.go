package fxsim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dsp"
	"repro/internal/filter"
	"repro/internal/fixed"
	"repro/internal/qnoise"
	"repro/internal/sfg"
)

func TestStimulusChunkingMatchesBatch(t *testing.T) {
	whole := make([]float64, 1000)
	draw(randNew(42), whole)
	chunked := randNew(42)
	var acc []float64
	for len(acc) < 1000 {
		x := make([]float64, 137)
		draw(chunked, x)
		acc = append(acc, x...)
	}
	for i := 0; i < 1000; i++ {
		if whole[i] != acc[i] {
			t.Fatalf("chunked generation diverges at %d", i)
		}
	}
}

func TestStimulusBounds(t *testing.T) {
	sig := make([]float64, 20000)
	draw(randNew(7), sig)
	for i, v := range sig {
		if v < -1.0001 || v > 1.0001 {
			t.Fatalf("sample %d = %g out of range", i, v)
		}
	}
}

func TestRunStreamingMatchesStatistics(t *testing.T) {
	// The simulator at another chunk length reproduces Run exactly.
	f, err := filter.DesignFIR(filter.FIRSpec{Band: filter.Lowpass, Taps: 33, F1: 0.2, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	g := quantizedInputChain(f, 10, fixed.Truncate)
	stream := simulateOutcome(t, g, Config{Samples: 200000, Seed: 3}, 4096)
	batch, err := Run(g, Config{Samples: 200000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := outcomeDiff(stream, batch); d != "" {
		t.Fatalf("chunk 4096 vs Run: %s", d)
	}
}

func TestRunStreamingChunkInvariance(t *testing.T) {
	// Every outcome field, PowerSE included, must not depend on the chunk
	// length: not on the multirate DWT graph, not on a graph whose adder
	// inputs end ragged (the tail is flushed at the end), and not on an
	// override source's noise stream.
	const n = 50001
	for name, g := range map[string]*sfg.Graph{
		"dwt":      dwtGraphForStream(t),
		"ragged":   raggedAdderGraph(),
		"override": overrideGraph(1e-6),
	} {
		cfg := Config{Samples: n, Seed: 4, PSDBins: 64, KeepError: true}
		want := simulateOutcome(t, g, cfg, n)
		for _, chunk := range []int{1, 137, 4096} {
			if d := outcomeDiff(simulateOutcome(t, g, cfg, chunk), want); d != "" {
				t.Errorf("%s: chunk %d vs whole signal: %s", name, chunk, d)
			}
		}
		cfg.PSDBins, cfg.KeepError = 0, false
		if d := outcomeDiff(simulateOutcome(t, g, cfg, 137), simulateOutcome(t, g, cfg, n)); d != "" {
			t.Errorf("%s: without the error signal, chunk 137 vs whole signal: %s", name, d)
		}
	}
}

func TestRunStreamingMultirate(t *testing.T) {
	// DWT graph: multirate with adders; the simulator must handle the
	// rate changes at any chunk length and reproduce Run.
	g := dwtGraphForStream(t)
	stream := simulateOutcome(t, g, Config{Samples: 1 << 17, Seed: 5}, 2048)
	batch, err := Run(g, Config{Samples: 1 << 17, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if stream.Power != batch.Power {
		t.Fatalf("chunk 2048 %g vs Run %g", stream.Power, batch.Power)
	}
}

// TestRunMemoryIndependentOfSamples: without PSDBins or KeepError, Run
// allocates the same few chunk buffers whatever the stimulus length.
func TestRunMemoryIndependentOfSamples(t *testing.T) {
	g := dwtGraphForStream(t)
	alloc := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(g, Config{Samples: n, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(1<<14), alloc(1<<20)
	if large > small+64<<10 {
		t.Fatalf("Run allocated %d bytes at 2^20 samples against %d at 2^14", large, small)
	}
}

// simulateOutcome runs the simulator at the given chunk length.
func simulateOutcome(t testing.TB, g *sfg.Graph, cfg Config, chunk int) *Outcome {
	t.Helper()
	acc, err := simulate(g, cfg, chunk)
	if err != nil {
		t.Fatal(err)
	}
	o, err := acc.outcome()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// outcomeDiff names the first field in which two outcomes differ by a
// single bit, or returns "".
func outcomeDiff(a, b *Outcome) string {
	fa := []float64{a.Power, a.PowerSE, a.Mean, a.Variance, a.RefPower, a.ErrPSD.Mean}
	fb := []float64{b.Power, b.PowerSE, b.Mean, b.Variance, b.RefPower, b.ErrPSD.Mean}
	names := []string{"Power", "PowerSE", "Mean", "Variance", "RefPower", "ErrPSD.Mean"}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return fmt.Sprintf("%s %g vs %g", names[i], fa[i], fb[i])
		}
	}
	if a.Samples != b.Samples {
		return fmt.Sprintf("Samples %d vs %d", a.Samples, b.Samples)
	}
	if !slices.Equal(a.ErrPSD.Bins, b.ErrPSD.Bins) {
		return "ErrPSD.Bins"
	}
	if !slices.Equal(a.Err, b.Err) {
		return "Err"
	}
	return ""
}

// raggedAdderGraph sums the input with its down-2/up-2 copy, which runs one
// sample longer at odd lengths, so the adder holds a tail until the end.
func raggedAdderGraph() *sfg.Graph {
	g := sfg.New()
	in := g.Input("in")
	dn := g.Down("d", 2)
	up := g.Up("u", 2)
	a := g.Adder("sum")
	g.Chain(in, dn, up, a)
	g.Connect(in, a)
	g.Connect(a, g.Output("out"))
	g.SetNoise(in, qnoise.Source{Mode: fixed.RoundNearest, Frac: 10})
	g.SetNoise(up, qnoise.Source{Mode: fixed.Truncate, Frac: 8})
	return g
}

// overrideGraph injects an override-moment (additive white) source.
func overrideGraph(variance float64) *sfg.Graph {
	g := sfg.New()
	in := g.Input("in")
	ga := g.Gain("g", 1)
	out := g.Output("out")
	g.Chain(in, ga, out)
	g.SetNoise(ga, qnoise.Source{Name: "ov", Override: &qnoise.Moments{Variance: variance}})
	return g
}

func dwtGraphForStream(t testing.TB) *sfg.Graph {
	t.Helper()
	// A compact analysis/synthesis pair with explicit multirate nodes.
	h0, err := filter.DesignFIR(filter.FIRSpec{Band: filter.Lowpass, Taps: 9, F1: 0.22, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := filter.DesignFIR(filter.FIRSpec{Band: filter.Highpass, Taps: 9, F1: 0.28, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	g := sfg.New()
	in := g.Input("in")
	la := g.Filter("h0", h0)
	ha := g.Filter("h1", h1)
	d1 := g.Down("d1", 2)
	d2 := g.Down("d2", 2)
	u1 := g.Up("u1", 2)
	u2 := g.Up("u2", 2)
	ls := g.Filter("g0", h0)
	hs := g.Filter("g1", h1)
	ad := g.Adder("sum")
	out := g.Output("out")
	g.Connect(in, la)
	g.Connect(in, ha)
	g.Chain(la, d1, u1, ls, ad)
	g.Chain(ha, d2, u2, hs, ad)
	g.Connect(ad, out)
	g.SetNoise(in, qnoise.Source{Mode: fixed.RoundNearest, Frac: 10})
	g.SetNoise(la, qnoise.Source{Mode: fixed.RoundNearest, Frac: 10})
	g.SetNoise(ha, qnoise.Source{Mode: fixed.RoundNearest, Frac: 10})
	return g
}

func TestRunStreamingWithPSD(t *testing.T) {
	f, _ := filter.DesignFIR(filter.FIRSpec{Band: filter.Lowpass, Taps: 21, F1: 0.2, Window: dsp.Hamming})
	g := quantizedInputChain(f, 8, fixed.RoundNearest)
	o, err := Run(g, Config{Samples: 100000, Seed: 6, PSDBins: 64})
	if err != nil {
		t.Fatal(err)
	}
	if o.ErrPSD.N() != 64 {
		t.Fatalf("PSD bins %d", o.ErrPSD.N())
	}
	if math.Abs(o.ErrPSD.Variance()-o.Variance) > 0.1*o.Variance {
		t.Fatalf("PSD variance %g vs %g", o.ErrPSD.Variance(), o.Variance)
	}
}

func TestRunStreamingErrors(t *testing.T) {
	g := quantizedInputChain(filter.NewFIR([]float64{1}, ""), 8, fixed.RoundNearest)
	if _, err := Run(g, Config{Samples: 0}); err == nil {
		t.Fatal("zero samples should fail")
	}
}

func TestRunStreamingOverrideSource(t *testing.T) {
	// Override-moment sources (additive white) must work in streaming mode.
	g := sfg.New()
	in := g.Input("in")
	ga := g.Gain("g", 1)
	out := g.Output("out")
	g.Chain(in, ga, out)
	v := 1e-6
	g.SetNoise(ga, qnoise.Source{Name: "ov", Override: &qnoise.Moments{Variance: v}})
	o, err := Run(g, Config{Samples: 300000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(o.Variance-v) > 0.05*v {
		t.Fatalf("override variance %g, want %g", o.Variance, v)
	}
}

func BenchmarkRunStreamingDWT(b *testing.B) {
	g := dwtGraphForStream(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, Config{Samples: 1 << 16, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
