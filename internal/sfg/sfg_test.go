package sfg

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/filter"
	"repro/internal/fixed"
	"repro/internal/qnoise"
)

// buildSimpleChain returns in -> filter -> out.
func buildSimpleChain() (*Graph, NodeID, NodeID, NodeID) {
	g := New()
	in := g.Input("in")
	f := g.Filter("f", filter.NewFIR([]float64{0.5, 0.5}, "avg"))
	out := g.Output("out")
	g.Chain(in, f, out)
	return g, in, f, out
}

func TestValidateHappyPath(t *testing.T) {
	g, _, _, _ := buildSimpleChain()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	// No output.
	g := New()
	in := g.Input("in")
	f := g.Filter("f", filter.NewFIR([]float64{1}, ""))
	g.Connect(in, f)
	if err := g.Validate(); err == nil {
		t.Fatal("missing output should fail validation")
	}
	// Two outputs.
	g2, _, f2, _ := buildSimpleChain()
	o2 := g2.Output("out2")
	g2.Connect(f2, o2)
	if err := g2.Validate(); err == nil {
		t.Fatal("two outputs should fail validation")
	}
	// Adder with one input.
	g3 := New()
	in3 := g3.Input("in")
	a3 := g3.Adder("a")
	out3 := g3.Output("out")
	g3.Chain(in3, a3, out3)
	if err := g3.Validate(); err == nil {
		t.Fatal("1-input adder should fail validation")
	}
	// Filter with two inputs.
	g4 := New()
	inA := g4.Input("a")
	inB := g4.Input("b")
	f4 := g4.Filter("f", filter.NewFIR([]float64{1}, ""))
	out4 := g4.Output("out")
	g4.Connect(inA, f4)
	g4.Connect(inB, f4)
	g4.Connect(f4, out4)
	if err := g4.Validate(); err == nil {
		t.Fatal("2-input filter should fail validation")
	}
	// Dead end.
	g5, _, f5, _ := buildSimpleChain()
	g5.Connect(f5, g5.Gain("dangling", 2))
	if err := g5.Validate(); err == nil {
		t.Fatal("dead-end node should fail validation")
	}
}

func TestTopoSortOrder(t *testing.T) {
	g := New()
	in := g.Input("in")
	f1 := g.Filter("f1", filter.NewFIR([]float64{1}, ""))
	f2 := g.Filter("f2", filter.NewFIR([]float64{1}, ""))
	a := g.Adder("a")
	out := g.Output("out")
	g.Connect(in, f1)
	g.Connect(in, f2)
	g.Connect(f1, a)
	g.Connect(f2, a)
	g.Connect(a, out)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range [][2]NodeID{{in, f1}, {in, f2}, {f1, a}, {f2, a}, {a, out}} {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("edge %d->%d violates topo order", e[0], e[1])
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := New()
	in := g.Input("in")
	a := g.Adder("a")
	f := g.Filter("f", filter.Filter{B: []float64{0.5}, A: []float64{1}})
	out := g.Output("out")
	g.Connect(in, a)
	g.Connect(a, f)
	g.Connect(f, a) // feedback
	g.Connect(a, out)
	if !g.HasCycle() {
		t.Fatal("cycle not detected")
	}
	names := g.FindCycle()
	if len(names) != 2 {
		t.Fatalf("cycle %v, want length 2", names)
	}
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("TopoSort should fail on cyclic graph")
	}
	// Acyclic graph reports no cycle.
	g2, _, _, _ := buildSimpleChain()
	if g2.HasCycle() || g2.FindCycle() != nil {
		t.Fatal("acyclic graph misreported")
	}
}

func TestNodeResponses(t *testing.T) {
	g := New()
	gain := g.Gain("g", -2)
	delay := g.Delay("d", 3)
	n := 16
	gr := g.Node(gain).Response(n)
	for _, v := range gr {
		if v != complex(-2, 0) {
			t.Fatalf("gain response %v", v)
		}
	}
	dr := g.Node(delay).Response(n)
	for k, v := range dr {
		want := cmplx.Exp(complex(0, -2*math.Pi*float64(3*k)/float64(n)))
		if cmplx.Abs(v-want) > 1e-12 {
			t.Fatalf("delay response bin %d: %v want %v", k, v, want)
		}
	}
	if cmplx.Abs(dr[0]-1) > 1e-15 {
		t.Fatal("delay DC gain must be 1")
	}
}

func TestCustomResponseLengthChecked(t *testing.T) {
	g := New()
	c := g.Custom("c", func(n int) []complex128 { return make([]complex128, n-1) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong response length")
		}
	}()
	g.Node(c).Response(8)
}

func TestNoiseSources(t *testing.T) {
	g, _, f, _ := buildSimpleChain()
	if len(g.NoiseSources()) != 0 {
		t.Fatal("fresh graph should have no sources")
	}
	g.SetNoise(f, qnoise.Source{Mode: fixed.Truncate, Frac: 12})
	srcs := g.NoiseSources()
	if len(srcs) != 1 || srcs[0] != f {
		t.Fatalf("sources %v", srcs)
	}
	if g.Node(f).Noise.Name != "f" {
		t.Fatalf("source name %q should default to node name", g.Node(f).Noise.Name)
	}
	g.ClearNoise(f)
	if len(g.NoiseSources()) != 0 {
		t.Fatal("ClearNoise failed")
	}
}

func TestInputsOutputs(t *testing.T) {
	g, in, _, out := buildSimpleChain()
	ins := g.Inputs()
	if len(ins) != 1 || ins[0] != in {
		t.Fatalf("inputs %v", ins)
	}
	o, err := g.OutputNode()
	if err != nil || o != out {
		t.Fatalf("output %v err %v", o, err)
	}
}

func TestIsMultirate(t *testing.T) {
	g, _, _, _ := buildSimpleChain()
	if g.IsMultirate() {
		t.Fatal("plain chain is not multirate")
	}
	g2 := New()
	in := g2.Input("in")
	d := g2.Down("d2", 2)
	out := g2.Output("out")
	g2.Chain(in, d, out)
	if !g2.IsMultirate() {
		t.Fatal("graph with decimator is multirate")
	}
}

func TestBreakLoopsOnePoleEquivalence(t *testing.T) {
	// y[n] = x[n] + a*y[n-1] built structurally: adder + delay + gain loop.
	// After BreakLoops the closed-loop block response must equal the
	// analytic 1/(1 - a e^{-jw}).
	a := 0.6
	g := New()
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

	n, err := g.BreakLoops()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("broke %d loops, want 1", n)
	}
	if g.HasCycle() {
		t.Fatal("graph still cyclic")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Find the inserted closed-loop node and compare its response with the
	// one-pole transfer function.
	var closed *Node
	for _, nd := range g.Nodes() {
		if nd.Kind == KindCustom {
			closed = nd
		}
	}
	if closed == nil {
		t.Fatal("closed-loop block not inserted")
	}
	nb := 64
	resp := closed.Response(nb)
	ref := filter.Filter{B: []float64{1}, A: []float64{1, -a}}
	want := ref.Response(nb)
	for k := range resp {
		if cmplx.Abs(resp[k]-want[k]) > 1e-9 {
			t.Fatalf("bin %d: %v vs analytic %v", k, resp[k], want[k])
		}
	}
}

func TestBreakLoopsRejectsTwoAdderCycle(t *testing.T) {
	g := New()
	in := g.Input("in")
	a1 := g.Adder("a1")
	a2 := g.Adder("a2")
	in2 := g.Input("in2")
	out := g.Output("out")
	g.Connect(in, a1)
	g.Connect(a1, a2)
	g.Connect(in2, a2)
	g.Connect(a2, a1) // cycle through both adders
	g.Connect(a2, out)
	if _, err := g.BreakLoops(); err == nil {
		t.Fatal("two-adder cycle should be rejected")
	}
}

func TestBreakLoopsNoOpOnAcyclic(t *testing.T) {
	g, _, _, _ := buildSimpleChain()
	n, err := g.BreakLoops()
	if err != nil || n != 0 {
		t.Fatalf("acyclic break: n=%d err=%v", n, err)
	}
}

func TestChainHelper(t *testing.T) {
	g := New()
	in := g.Input("in")
	f := g.Filter("f", filter.NewFIR([]float64{1}, ""))
	out := g.Output("out")
	last := g.Chain(in, f, out)
	if last != out {
		t.Fatal("Chain should return last node")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindInput: "input", KindOutput: "output", KindFilter: "filter",
		KindGain: "gain", KindDelay: "delay", KindAdder: "adder",
		KindDown: "down", KindUp: "up", KindCustom: "custom",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%v.String() = %q", int(k), k.String())
		}
	}
}

func TestPanicsOnBadConstruction(t *testing.T) {
	g := New()
	for _, fn := range []func(){
		func() { g.Delay("d", -1) },
		func() { g.Down("d", 0) },
		func() { g.Up("u", 0) },
		func() { g.Connect(NodeID(99), NodeID(100)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	g, _, f, _ := buildSimpleChain()
	g.SetNoise(f, qnoise.Source{Mode: fixed.Truncate, Frac: 8})
	c := g.Clone()
	c.Node(f).Noise.Frac = 16
	if g.Node(f).Noise.Frac != 8 {
		t.Fatal("clone shares noise sources with original")
	}
	if len(c.Nodes()) != len(g.Nodes()) {
		t.Fatal("clone node count mismatch")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestObserveAtIntermediateNode(t *testing.T) {
	// in -> f1 -> f2 -> out, observe at f1: f2 and out must be pruned.
	g := New()
	in := g.Input("in")
	f1 := g.Filter("f1", filter.NewFIR([]float64{0.5, 0.5}, ""))
	f2 := g.Filter("f2", filter.NewFIR([]float64{1, -1}, ""))
	out := g.Output("out")
	g.Chain(in, f1, f2, out)
	g.SetNoise(in, qnoise.Source{Mode: fixed.Truncate, Frac: 8})

	obs, err := g.ObserveAt(f1)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Validate(); err != nil {
		t.Fatal(err)
	}
	// in, f1, probe = 3 nodes; f2 and original out pruned.
	if len(obs.Nodes()) != 3 {
		t.Fatalf("observed graph has %d nodes, want 3", len(obs.Nodes()))
	}
	if len(obs.NoiseSources()) != 1 {
		t.Fatal("noise source lost in observation subgraph")
	}
}

func TestObserveAtOutputIsClone(t *testing.T) {
	g, _, _, out := buildSimpleChain()
	obs, err := g.ObserveAt(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.Nodes()) != len(g.Nodes()) {
		t.Fatal("observing the output should be a plain clone")
	}
}

func TestObserveAtDegradesAdder(t *testing.T) {
	// Adder with two inputs, one of which does not feed the target: after
	// pruning it must degrade to a pass-through.
	g := New()
	inA := g.Input("a")
	inB := g.Input("b")
	ad := g.Adder("sum")
	f := g.Filter("f", filter.NewFIR([]float64{1}, ""))
	out := g.Output("out")
	g.Connect(inA, ad)
	g.Connect(inB, ad)
	g.Connect(ad, f)
	g.Connect(f, out)
	// Observe at inA: nothing downstream of it except... inA itself.
	obs, err := g.ObserveAt(inA)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.Nodes()) != 2 {
		t.Fatalf("expected just input+probe, got %d nodes", len(obs.Nodes()))
	}
}

func TestObserveAtBadID(t *testing.T) {
	g, _, _, _ := buildSimpleChain()
	if _, err := g.ObserveAt(NodeID(99)); err == nil {
		t.Fatal("unknown node should fail")
	}
}
