package service

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/wlopt"
)

// cascadeSpec is an explore-shaped system: in → 4 branches → sum → out,
// each branch 4 (lowpass filter, gain) stages with a noise source on
// every stage node — 32 sources.
func cascadeSpec() *spec.Spec {
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
	return sp
}

// TestSearchLeavesMemoIntact: the engine hands every caller of a uniform
// width the plan's one memoized Result, so a caller writing into a Result
// would corrupt every later caller's. Jobs of all four strategies, each
// with a budget probe, run concurrently on the manager's one engine over
// the cascade and dwt97(fig3). Afterwards the engine's Result for every
// width on the memo grid is bit-identical to a fresh plan's.
func TestSearchLeavesMemoIntact(t *testing.T) {
	const npsd = 64
	m := testManager(t, Config{NPSD: npsd, Workers: 2})
	var ids []string
	for _, strat := range wlopt.Strategies() {
		for _, req := range []Request{
			{System: "dwt97(fig3)", Options: testOptions(strat)},
			{Spec: cascadeSpec(), Options: testOptions(strat)},
		} {
			info, err := m.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, info.ID)
		}
	}
	for _, id := range ids {
		if fin := waitDone(t, m, id); fin.State != JobDone {
			t.Fatalf("job %s: %s %q", id, fin.State, fin.Error)
		}
	}
	checked := map[string]bool{}
	for _, id := range ids {
		m.mu.Lock()
		j := m.jobs[id]
		e, ok := m.graphs.get(j.digest)
		m.mu.Unlock()
		if !ok {
			t.Fatalf("job %s: graph evicted", id)
		}
		if checked[j.digest] {
			continue
		}
		checked[j.digest] = true
		g := e.(*graphEntry).g
		gFresh, err := j.sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		fresh := core.NewEngine(npsd, 1)
		for w := 0; w <= 48; w++ {
			got, err := m.eng.EvaluateAssignment(g, core.UniformAssignment(g.NoiseSources(), w))
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.EvaluateAssignment(gFresh, core.UniformAssignment(gFresh.NoiseSources(), w))
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(got, want); err != nil {
				t.Fatalf("%s width %d: %v", j.sysName, w, err)
			}
		}
	}
	if len(checked) != 2 {
		t.Fatalf("checked %d graphs, want 2", len(checked))
	}
}

// sameResult reports the first field in which got and want differ bit
// for bit.
func sameResult(got, want *core.Result) error {
	if got.Power != want.Power || got.Variance != want.Variance || got.Mean != want.Mean || got.PSD.Mean != want.PSD.Mean {
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
