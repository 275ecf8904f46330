package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sfg"
	"repro/internal/spec"
	"repro/internal/systems"
)

// memoWidths is every width the uniform memo holds.
const memoWidths = sigmaGridMax - sigmaGridMin + 1

// cascadeSpecGraph builds an explore-shaped system from a spec: in → 4
// branches → sum → out, each branch 4 (lowpass filter, gain) stages with a
// noise source on every stage node — 32 sources.
func cascadeSpecGraph(t *testing.T) *sfg.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(5))
	sp := &spec.Spec{Version: spec.Version, Name: "cascade"}
	sp.Nodes = append(sp.Nodes, spec.NodeSpec{Name: "in", Kind: "input"})
	for b := 0; b < 4; b++ {
		prev := "in"
		for s := 0; s < 4; s++ {
			f1 := 0.1 + 0.3*r.Float64()
			fs := spec.FilterSpec{IIR: &spec.IIRDesign{Kind: "butterworth", Band: "lowpass", Order: 2, F1: f1}}
			if r.Intn(2) == 0 {
				fs = spec.FilterSpec{FIR: &spec.FIRDesign{Band: "lowpass", Taps: 31, F1: f1, Window: "hamming"}}
			}
			gain := 0.3 + 0.6*r.Float64()
			f, g := fmt.Sprintf("b%d.s%d.f", b, s), fmt.Sprintf("b%d.s%d.g", b, s)
			sp.Nodes = append(sp.Nodes,
				spec.NodeSpec{Name: f, Kind: "filter", Filter: &fs, Noise: &spec.NoiseSpec{Frac: 16}},
				spec.NodeSpec{Name: g, Kind: "gain", Gain: &gain, Noise: &spec.NoiseSpec{Frac: 16}})
			sp.Edges = append(sp.Edges, [2]string{prev, f}, [2]string{f, g})
			prev = g
		}
		sp.Edges = append(sp.Edges, [2]string{prev, "sum"})
	}
	sp.Nodes = append(sp.Nodes, spec.NodeSpec{Name: "sum", Kind: "adder"}, spec.NodeSpec{Name: "out", Kind: "output"})
	sp.Edges = append(sp.Edges, [2]string{"sum", "out"})
	g, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// memoSystems returns a builder of fresh graphs for every registry system
// and the explore-shaped cascade.
func memoSystems(t *testing.T) map[string]func() *sfg.Graph {
	t.Helper()
	reg, err := systems.Registry()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]func() *sfg.Graph{"cascade": func() *sfg.Graph { return cascadeSpecGraph(t) }}
	for _, sys := range reg {
		sys := sys
		out[sys.Name()] = func() *sfg.Graph {
			g, err := sys.Graph(14)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	return out
}

// uniformAssignments returns the uniform assignment of every memo width,
// widest first, so a batch visits them in the opposite order to the
// reference.
func uniformAssignments(g *sfg.Graph) []Assignment {
	as := make([]Assignment, memoWidths)
	for i := range as {
		as[i] = UniformAssignment(g.NoiseSources(), sigmaGridMax-i)
	}
	return as
}

// TestUniformMemoMatchesFreshPlans is the memo's contract: on every
// registry system and an explore-shaped cascade, at every width in
// [0, 48], at 1 and 4 workers, on built, restored and full-propagation
// plans, a memoized EvaluateAssignment or EvaluateBatch Result equals a
// fresh plan's bit for bit, and every call for a width returns the same
// shared Result.
func TestUniformMemoMatchesFreshPlans(t *testing.T) {
	const npsd = 256
	for name, build := range memoSystems(t) {
		t.Run(name, func(t *testing.T) {
			for _, mode := range []string{"built", "restored", "full"} {
				// The reference visits each width once on its own engine,
				// so every reference Result is a computation, not a memo hit.
				gRef := build()
				ref := NewEngine(npsd, 1)
				ref.SetFullPropagation(mode == "full")
				want := make([]*Result, memoWidths)
				for w := range want {
					var err error
					if want[w], err = ref.EvaluateAssignment(gRef, UniformAssignment(gRef.NoiseSources(), sigmaGridMin+w)); err != nil {
						t.Fatal(err)
					}
				}
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s/workers=%d", mode, workers)
					g := build()
					eng := NewEngine(npsd, workers)
					switch mode {
					case "full":
						eng.SetFullPropagation(true)
					case "restored":
						snap, err := ref.SnapshotPlan(gRef)
						if err != nil {
							t.Fatal(err)
						}
						if err := eng.RestorePlan(g, snap); err != nil {
							t.Fatal(err)
						}
					}
					as := uniformAssignments(g)
					// Three passes: the batch fills the memo, then single
					// and batch calls are served from it, each with the
					// pointer the first pass got.
					shared := make([]*Result, len(as))
					for pass := 0; pass < 3; pass++ {
						var got []*Result
						var err error
						if pass == 1 {
							for _, a := range as {
								r, err := eng.EvaluateAssignment(g, a)
								if err != nil {
									t.Fatal(err)
								}
								got = append(got, r)
							}
						} else if got, err = eng.EvaluateBatch(g, as); err != nil {
							t.Fatal(err)
						}
						for i, r := range got {
							w := sigmaGridMax - i
							exactResultsEqual(t, fmt.Sprintf("%s/pass %d/width %d", label, pass, w), r, want[w-sigmaGridMin])
							if pass == 0 {
								shared[i] = r
							} else if r != shared[i] {
								t.Fatalf("%s/pass %d/width %d: a memo hit returned another Result than the first call", label, pass, w)
							}
						}
					}
				}
			}
		})
	}
}

// TestUniformMemoLifetime: the memo serves only uniform assignments on
// the width grid, and it lives and dies with its plan — Invalidate and
// RestorePlan start a plan with an empty memo.
func TestUniformMemoLifetime(t *testing.T) {
	g, err := systems.NewDWT().Graph(14)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(128, 1)
	filled := func() int {
		p, err := eng.plan(g)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for i := range p.uniform {
			if p.uniform[i].Load() != nil {
				n++
			}
		}
		return n
	}
	src := g.NoiseSources()
	mixed := UniformAssignment(src, 10)
	mixed[src[0]] = 11
	for _, a := range []Assignment{mixed, UniformAssignment(src, 49), UniformAssignment(src, -1)} {
		if _, err := eng.EvaluateAssignment(g, a); err != nil {
			t.Fatal(err)
		}
	}
	if n := filled(); n != 0 {
		t.Fatalf("non-uniform and off-grid assignments filled %d memo cells", n)
	}
	// The registry graph is built at a uniform 14 bits, so Evaluate (the
	// graph's own widths) fills a cell too.
	if _, err := eng.Evaluate(g); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EvaluateBatch(g, []Assignment{UniformAssignment(src, 0), UniformAssignment(src, 48)}); err != nil {
		t.Fatal(err)
	}
	if n := filled(); n != 3 {
		t.Fatalf("memo holds %d cells after widths 14, 0 and 48, want 3", n)
	}
	snap, err := eng.SnapshotPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	eng.Invalidate(g)
	if n := filled(); n != 0 {
		t.Fatalf("re-planned graph starts with %d memo cells", n)
	}
	if _, err := eng.EvaluateAssignment(g, UniformAssignment(src, 8)); err != nil {
		t.Fatal(err)
	}
	eng.Invalidate(g)
	if err := eng.RestorePlan(g, snap); err != nil {
		t.Fatal(err)
	}
	if n := filled(); n != 0 {
		t.Fatalf("restored plan starts with %d memo cells", n)
	}
}

// TestUniformMemoConcurrentFill: goroutines racing to fill the same memo
// cells all get, for each width, one shared Result, bit-identical to the
// serial reference's. Run under -race it also shows that a racing first
// fill publishes its Result safely.
func TestUniformMemoConcurrentFill(t *testing.T) {
	const npsd = 128
	build := func() *sfg.Graph { return cascadeSpecGraph(t) }
	gRef := build()
	ref := NewEngine(npsd, 1)
	want := make([]*Result, memoWidths)
	for w := range want {
		var err error
		if want[w], err = ref.EvaluateAssignment(gRef, UniformAssignment(gRef.NoiseSources(), sigmaGridMin+w)); err != nil {
			t.Fatal(err)
		}
	}
	g := build()
	eng := NewEngine(npsd, 2)
	if _, err := eng.EvalMode(g); err != nil { // plan once; the fills race, not the build
		t.Fatal(err)
	}
	as := uniformAssignments(g)
	const goroutines = 6
	got := make([][]*Result, goroutines) // by goroutine, the last rep's Results
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				var rs []*Result
				if gr%2 == 0 {
					var err error
					if rs, err = eng.EvaluateBatch(g, as); err != nil {
						errs <- err
						return
					}
				} else {
					for _, a := range as {
						r, err := eng.EvaluateAssignment(g, a)
						if err != nil {
							errs <- err
							return
						}
						rs = append(rs, r)
					}
				}
				for i, r := range rs {
					if err := sameResult(r, want[sigmaGridMax-i-sigmaGridMin]); err != nil {
						errs <- fmt.Errorf("goroutine %d, width %d: %v", gr, sigmaGridMax-i, err)
						return
					}
				}
				got[gr] = rs
			}
		}(gr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for gr := 1; gr < goroutines; gr++ {
		for i, r := range got[gr] {
			if r != got[0][i] {
				t.Fatalf("goroutine %d, width %d: got another Result than goroutine 0", gr, sigmaGridMax-i)
			}
		}
	}
}

// sameResult is exactResultsEqual for goroutines that must not call
// t.Fatal.
func sameResult(got, want *Result) error {
	if got.Power != want.Power || got.Variance != want.Variance || got.Mean != want.Mean {
		return fmt.Errorf("scalar fields diverge: (%v %v %v) vs (%v %v %v)",
			got.Power, got.Variance, got.Mean, want.Power, want.Variance, want.Mean)
	}
	if len(got.PSD.Bins) != len(want.PSD.Bins) || len(got.PerSource) != len(want.PerSource) {
		return fmt.Errorf("shape diverges")
	}
	for k := range got.PSD.Bins {
		if got.PSD.Bins[k] != want.PSD.Bins[k] {
			return fmt.Errorf("bin %d diverges: %v vs %v", k, got.PSD.Bins[k], want.PSD.Bins[k])
		}
	}
	for i := range got.PerSource {
		if got.PerSource[i] != want.PerSource[i] {
			return fmt.Errorf("per-source %d diverges: %+v vs %+v", i, got.PerSource[i], want.PerSource[i])
		}
	}
	return nil
}
