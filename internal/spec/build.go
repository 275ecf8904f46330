package spec

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/qnoise"
	"repro/internal/sfg"
)

// Build validates the spec and constructs the described sfg.Graph. Nodes
// are created in spec order (so node IDs, and therefore the evaluators'
// source ordering, follow the document), edges in edge order.
func (sp *Spec) Build() (*sfg.Graph, error) {
	g, _, err := sp.check()
	return g, err
}

// build assembles the graph from the nodes' resolved filters; semantic
// validation (unique names, kind parameters, known modes and edge ends)
// must already have passed.
func (sp *Spec) build(filters []filter.Filter) (*sfg.Graph, error) {
	g := sfg.New()
	ids := make(map[string]sfg.NodeID, len(sp.Nodes))
	for i := range sp.Nodes {
		n := &sp.Nodes[i]
		var id sfg.NodeID
		switch n.Kind {
		case "input":
			id = g.Input(n.Name)
		case "output":
			id = g.Output(n.Name)
		case "adder":
			id = g.Adder(n.Name)
		case "gain":
			id = g.Gain(n.Name, *n.Gain)
		case "delay":
			id = g.Delay(n.Name, *n.Delay)
		case "down":
			id = g.Down(n.Name, *n.Factor)
		case "up":
			id = g.Up(n.Name, *n.Factor)
		case "filter":
			id = g.Filter(n.Name, filters[i])
		}
		ids[n.Name] = id
		if ns := n.Noise; ns != nil {
			mode, _ := parseMode(ns.Mode)
			src := qnoise.Source{Name: ns.Name, Mode: mode, Frac: ns.Frac, FracIn: ns.FracIn}
			if ns.Override != nil {
				src.Override = &qnoise.Moments{Mean: ns.Override.Mean, Variance: ns.Override.Variance}
			}
			g.SetNoise(id, src)
		}
	}
	for _, e := range sp.Edges {
		g.Connect(ids[e[0]], ids[e[1]])
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("spec: invalid graph: %v", err)
	}
	if _, err := g.TopoSort(); err != nil {
		return nil, fmt.Errorf("spec: %v", err)
	}
	return g, nil
}

// FromGraph exports a graph as a spec. Every node must have a unique,
// non-empty name (the spec addresses nodes by name), and custom
// sampled-response nodes are not expressible — both are reported as errors.
// Filters are exported as explicit coefficients, noise sources with their
// full PQN parameters, so Build on the result reproduces the graph
// bit-for-bit (same node order, same IDs, same responses).
func FromGraph(g *sfg.Graph, name string) (*Spec, error) {
	sp := &Spec{Version: Version, Name: name}
	seen := make(map[string]sfg.NodeID)
	for _, n := range g.Nodes() {
		if n.Name == "" {
			return nil, fmt.Errorf("spec: node %d has no name", n.ID)
		}
		if prev, dup := seen[n.Name]; dup {
			return nil, fmt.Errorf("spec: duplicate node name %q (nodes %d and %d)", n.Name, prev, n.ID)
		}
		seen[n.Name] = n.ID
		ns := NodeSpec{Name: n.Name}
		switch n.Kind {
		case sfg.KindInput:
			ns.Kind = "input"
		case sfg.KindOutput:
			ns.Kind = "output"
		case sfg.KindAdder:
			ns.Kind = "adder"
		case sfg.KindGain:
			ns.Kind = "gain"
			v := n.Gain
			ns.Gain = &v
		case sfg.KindDelay:
			ns.Kind = "delay"
			v := n.Delay
			ns.Delay = &v
		case sfg.KindDown:
			ns.Kind = "down"
			v := n.Factor
			ns.Factor = &v
		case sfg.KindUp:
			ns.Kind = "up"
			v := n.Factor
			ns.Factor = &v
		case sfg.KindFilter:
			ns.Kind = "filter"
			ns.Filter = &FilterSpec{
				B:    append([]float64(nil), n.Filt.B...),
				A:    append([]float64(nil), n.Filt.A...),
				Desc: n.Filt.Desc,
			}
		default:
			return nil, fmt.Errorf("spec: node %q of kind %v is not expressible in the spec format", n.Name, n.Kind)
		}
		if src := n.Noise; src != nil {
			nsp := &NoiseSpec{Name: src.Name, Mode: modeName(src.Mode), Frac: src.Frac, FracIn: src.FracIn}
			if src.Override != nil {
				nsp.Override = &MomentsSpec{Mean: src.Override.Mean, Variance: src.Override.Variance}
			}
			ns.Noise = nsp
		}
		sp.Nodes = append(sp.Nodes, ns)
	}
	for _, n := range g.Nodes() {
		for _, succ := range g.Succ(n.ID) {
			sp.Edges = append(sp.Edges, [2]string{n.Name, g.Node(succ).Name})
		}
	}
	if err := sp.Validate(); err != nil {
		return nil, fmt.Errorf("spec: exported graph does not validate: %w", err)
	}
	return sp, nil
}
