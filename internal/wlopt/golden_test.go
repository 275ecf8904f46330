package wlopt

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sfg"
	"repro/internal/spec"
)

// cascadeGraph builds an explore-shaped system: in → 4 branches → sum →
// out, each branch a chain of 4 (lowpass filter, gain) stages with a noise
// source on every stage node — 32 sources. Filters are 31-tap FIRs or
// order-2 Butterworth IIRs drawn from a fixed seed.
func cascadeGraph(t *testing.T) *sfg.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(11))
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

// fractionalWeights gives three of every four sources a non-integer cost
// per bit (0.7, 1.5, 2.25 in turn); the fourth keeps the default 1.
func fractionalWeights(g *sfg.Graph) map[string]float64 {
	w := map[string]float64{}
	for i, id := range g.NoiseSources() {
		if i%4 != 3 {
			w[g.Node(id).Noise.Name] = []float64{0.7, 1.5, 2.25}[i%3]
		}
	}
	return w
}

// searchCase builds the graph and options of one hybrid/anneal golden:
// graph "two-stage", "dwt" or "cascade"; weights "unit" or "frac";
// rounds 0 for anneal's default length.
func searchCase(t *testing.T, graph, weights string, rounds int) (*sfg.Graph, Options) {
	t.Helper()
	var g *sfg.Graph
	var opt Options
	if graph == "cascade" {
		// The budget is the 256-bin power of the uniform width-8
		// assignment, the service's budget_width convention.
		g, opt = cascadeGraph(t), Options{Budget: 7.6067081786192948e-06, MinFrac: 4, MaxFrac: 16}
	} else {
		g, opt = goldenGraph(t, graph)
	}
	if weights == "frac" {
		opt.CostPerBit = fractionalWeights(g)
	}
	opt.Seed = 3
	opt.AnnealRounds = rounds
	return g, opt
}

// searchGolden is one recorded search outcome; fracs are in NoiseSources
// order.
type searchGolden struct {
	fracs       []int
	power       float64
	cost        float64
	uniformFrac int
	uniformCost float64
	evaluations int
}

// hybridAnnealGoldens were recorded before the strategy loops stopped
// cloning, sorting and looking up weights per call, and before the plan
// memoized its uniform-width results. Both changes claim bit-identical
// answers, so the table must keep passing unedited.
var hybridAnnealGoldens = []struct {
	strategy, graph, weights string
	rounds                   int
	want                     searchGolden
}{
	{"hybrid", "two-stage", "unit", 0, searchGolden{
		fracs: []int{4, 12, 12},
		power: 6.8885255145050188e-09, cost: 28,
		uniformFrac: 12, uniformCost: 36, evaluations: 69,
	}},
	{"hybrid", "two-stage", "frac", 0, searchGolden{
		fracs: []int{4, 12, 12},
		power: 6.8885255145050188e-09, cost: 47.799999999999997,
		uniformFrac: 12, uniformCost: 53.399999999999999, evaluations: 69,
	}},
	{"hybrid", "dwt", "unit", 0, searchGolden{
		fracs: []int{12, 12, 11, 12, 10, 11, 11, 12, 12},
		power: 8.8466145447346623e-08, cost: 103,
		uniformFrac: 12, uniformCost: 108, evaluations: 627,
	}},
	{"hybrid", "dwt", "frac", 0, searchGolden{
		fracs: []int{12, 12, 10, 12, 11, 11, 12, 12, 11},
		power: 8.9811162028716205e-08, cost: 147.30000000000001,
		uniformFrac: 12, uniformCost: 157.80000000000001, evaluations: 627,
	}},
	{"hybrid", "cascade", "unit", 0, searchGolden{
		fracs: []int{5, 5, 5, 7, 7, 8, 8, 9, 6, 7, 7, 7, 7, 8, 8, 9, 4, 6, 6, 7, 7, 8, 9, 9, 4, 5, 5, 7, 7, 7, 8, 9},
		power: 7.4912811358218994e-06, cost: 221,
		uniformFrac: 8, uniformCost: 256, evaluations: 3021,
	}},
	{"hybrid", "cascade", "frac", 0, searchGolden{
		fracs: []int{5, 5, 5, 7, 7, 7, 9, 9, 5, 7, 7, 7, 8, 8, 8, 9, 4, 5, 6, 7, 7, 9, 9, 9, 5, 5, 5, 7, 7, 7, 9, 9},
		power: 7.5763807441496796e-06, cost: 292.85000000000002,
		uniformFrac: 8, uniformCost: 348.80000000000001, evaluations: 3149,
	}},
	{"anneal", "two-stage", "unit", 0, searchGolden{
		fracs: []int{4, 12, 12},
		power: 6.8885255145050188e-09, cost: 28,
		uniformFrac: 12, uniformCost: 36, evaluations: 403,
	}},
	{"anneal", "two-stage", "unit", 300, searchGolden{
		fracs: []int{4, 12, 12},
		power: 6.8885255145050188e-09, cost: 28,
		uniformFrac: 12, uniformCost: 36, evaluations: 2419,
	}},
	{"anneal", "two-stage", "frac", 0, searchGolden{
		fracs: []int{4, 11, 13},
		power: 8.7584542360428126e-09, cost: 48.549999999999997,
		uniformFrac: 12, uniformCost: 53.399999999999999, evaluations: 403,
	}},
	{"anneal", "two-stage", "frac", 300, searchGolden{
		fracs: []int{4, 12, 12},
		power: 6.8885255145050188e-09, cost: 47.799999999999997,
		uniformFrac: 12, uniformCost: 53.399999999999999, evaluations: 2419,
	}},
	{"anneal", "dwt", "unit", 0, searchGolden{
		fracs: []int{12, 12, 11, 13, 10, 11, 12, 11, 11},
		power: 9.9782044643982302e-08, cost: 103,
		uniformFrac: 12, uniformCost: 108, evaluations: 783,
	}},
	{"anneal", "dwt", "unit", 300, searchGolden{
		fracs: []int{12, 12, 11, 11, 11, 11, 12, 11, 12},
		power: 8.9664547211268692e-08, cost: 103,
		uniformFrac: 12, uniformCost: 108, evaluations: 2415,
	}},
	{"anneal", "dwt", "frac", 0, searchGolden{
		fracs: []int{12, 12, 10, 11, 11, 12, 12, 12, 11},
		power: 9.052110032632778e-08, cost: 148.55000000000001,
		uniformFrac: 12, uniformCost: 157.80000000000001, evaluations: 783,
	}},
	{"anneal", "dwt", "frac", 300, searchGolden{
		fracs: []int{12, 12, 10, 12, 11, 11, 12, 12, 11},
		power: 8.9811162028716205e-08, cost: 147.30000000000001,
		uniformFrac: 12, uniformCost: 157.80000000000001, evaluations: 2415,
	}},
	{"anneal", "cascade", "unit", 0, searchGolden{
		fracs: []int{6, 6, 6, 8, 6, 8, 8, 10, 7, 6, 8, 8, 7, 8, 7, 10, 5, 6, 7, 6, 8, 9, 8, 9, 6, 6, 5, 8, 8, 8, 7, 9},
		power: 7.5623711029741923e-06, cost: 234,
		uniformFrac: 8, uniformCost: 256, evaluations: 2255,
	}},
	{"anneal", "cascade", "unit", 300, searchGolden{
		fracs: []int{6, 6, 6, 6, 7, 8, 8, 10, 6, 6, 7, 7, 8, 8, 7, 9, 5, 7, 7, 7, 8, 9, 8, 9, 5, 5, 6, 8, 6, 7, 8, 9},
		power: 7.5718452378371893e-06, cost: 229,
		uniformFrac: 8, uniformCost: 256, evaluations: 2415,
	}},
	{"anneal", "cascade", "frac", 0, searchGolden{
		fracs: []int{6, 6, 6, 8, 6, 7, 7, 9, 6, 7, 8, 7, 8, 7, 8, 8, 5, 7, 8, 8, 7, 9, 8, 9, 4, 6, 5, 7, 8, 8, 9, 11},
		power: 7.5848504714799742e-06, cost: 310.10000000000008,
		uniformFrac: 8, uniformCost: 348.80000000000001, evaluations: 2255,
	}},
	{"anneal", "cascade", "frac", 300, searchGolden{
		fracs: []int{5, 6, 6, 7, 6, 7, 7, 9, 6, 8, 8, 7, 8, 7, 8, 8, 6, 6, 8, 8, 7, 10, 8, 9, 5, 6, 5, 7, 8, 8, 9, 10},
		power: 7.5735239404109978e-06, cost: 308.75,
		uniformFrac: 8, uniformCost: 348.80000000000001, evaluations: 2415,
	}},
}

// TestHybridAnnealGoldens pins the hybrid and anneal strategies the way
// TestStrategiesReproducePreRefactorResults pins descent and ascent: the
// assignment, the power to the bit, the cost, the uniform baseline and
// the oracle-call count, under unit and fractional weights and under
// anneal's default and an explicit round count.
func TestHybridAnnealGoldens(t *testing.T) {
	for _, tc := range hybridAnnealGoldens {
		name := fmt.Sprintf("%s/%s/%s/rounds=%d", tc.strategy, tc.graph, tc.weights, tc.rounds)
		t.Run(name, func(t *testing.T) {
			g, opt := searchCase(t, tc.graph, tc.weights, tc.rounds)
			res, err := RunStrategy(g, tc.strategy, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.want
			for i, id := range g.NoiseSources() {
				if got := res.Fracs[g.Node(id).Noise.Name]; got != want.fracs[i] {
					t.Errorf("source %d (%s) width %d, golden %d", i, g.Node(id).Noise.Name, got, want.fracs[i])
				}
			}
			if res.Power != want.power {
				t.Errorf("power %.17g, golden %.17g", res.Power, want.power)
			}
			if res.Cost != want.cost || res.UniformFrac != want.uniformFrac || res.UniformCost != want.uniformCost {
				t.Errorf("cost %.17g/%d/%.17g, golden %.17g/%d/%.17g",
					res.Cost, res.UniformFrac, res.UniformCost, want.cost, want.uniformFrac, want.uniformCost)
			}
			if res.Evaluations != want.evaluations {
				t.Errorf("%d oracle calls, golden %d", res.Evaluations, want.evaluations)
			}
		})
	}
}
