package fxsim

import (
	"sync"
	"testing"

	"repro/internal/dsp"
	"repro/internal/filter"
	"repro/internal/fixed"
	"repro/internal/qnoise"
	"repro/internal/sfg"
)

func buildParallelGraph(t *testing.T) *sfg.Graph {
	t.Helper()
	f, err := filter.DesignFIR(filter.FIRSpec{Band: filter.Lowpass, Taps: 31, F1: 0.2, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	g := sfg.New()
	in := g.Input("in")
	fl := g.Filter("lp", f)
	out := g.Output("out")
	g.Chain(in, fl, out)
	g.SetNoise(fl, qnoise.Source{Mode: fixed.RoundNearest, Frac: 12})
	return g
}

// TestRunParallelRepeatedRunsIdentical: Run calls made in parallel on the
// same read-only graph are bit-identical to a reference run — every noise
// stream reseeds from Seed, so there is no hidden shared RNG state — and
// clean under -race.
func TestRunParallelRepeatedRunsIdentical(t *testing.T) {
	g := buildParallelGraph(t)
	cfg := Config{Samples: 1 << 14, Seed: 7}
	ref, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got, err := Run(g, cfg)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			if got.Power != ref.Power || got.Mean != ref.Mean || got.Samples != ref.Samples {
				t.Errorf("worker %d: outcome diverges: %+v vs %+v", w, got, ref)
			}
		}(w)
	}
	wg.Wait()
}
