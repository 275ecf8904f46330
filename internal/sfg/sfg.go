// Package sfg implements the signal-flow-graph substrate: typed nodes
// (inputs, LTI filter blocks, gains, delays, adders, decimators, expanders,
// custom sampled-response blocks and outputs) connected by directed edges,
// with additive quantization-noise sources attached at block outputs —
// the system representation of Section III-B of the paper.
//
// The analytical evaluators in package core walk these graphs; the
// Monte-Carlo engine in package fxsim executes them on samples.
package sfg

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/filter"
	"repro/internal/qnoise"
)

// Kind discriminates node behaviour.
type Kind int

const (
	// KindInput is a signal entry point.
	KindInput Kind = iota
	// KindOutput is the single observation point of the graph.
	KindOutput
	// KindFilter applies an LTI filter (FIR or IIR).
	KindFilter
	// KindGain multiplies by a constant.
	KindGain
	// KindDelay delays by an integer number of samples.
	KindDelay
	// KindAdder sums all incoming signals.
	KindAdder
	// KindDown keeps every Factor-th sample.
	KindDown
	// KindUp inserts Factor-1 zeros between samples.
	KindUp
	// KindCustom is an LTI block given directly by a sampled frequency
	// response; it has no time-domain form, so it cannot be simulated.
	KindCustom
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindOutput:
		return "output"
	case KindFilter:
		return "filter"
	case KindGain:
		return "gain"
	case KindDelay:
		return "delay"
	case KindAdder:
		return "adder"
	case KindDown:
		return "down"
	case KindUp:
		return "up"
	case KindCustom:
		return "custom"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NodeID identifies a node within its graph.
type NodeID int

// Node is one block of the signal flow graph.
type Node struct {
	ID   NodeID
	Name string
	Kind Kind

	// Filt is the transfer function for KindFilter nodes.
	Filt filter.Filter
	// Gain is the multiplier for KindGain nodes.
	Gain float64
	// Delay is the sample delay for KindDelay nodes.
	Delay int
	// Factor is the rate-change factor for KindDown / KindUp nodes.
	Factor int
	// RespFn samples the frequency response of KindCustom nodes on n bins.
	RespFn func(n int) []complex128

	// Noise is the additive quantization-noise source injected at this
	// node's output, or nil for an exact block.
	Noise *qnoise.Source
}

// IsLTI reports whether the node has a well-defined frequency response
// (everything except rate changers, adders and I/O markers).
func (n *Node) IsLTI() bool {
	switch n.Kind {
	case KindFilter, KindGain, KindDelay, KindCustom:
		return true
	default:
		return false
	}
}

// Response samples the node's frequency response on nb bins. Panics for
// non-LTI nodes.
func (n *Node) Response(nb int) []complex128 {
	switch n.Kind {
	case KindFilter:
		return n.Filt.Response(nb)
	case KindGain:
		out := make([]complex128, nb)
		for i := range out {
			out[i] = complex(n.Gain, 0)
		}
		return out
	case KindDelay:
		out := make([]complex128, nb)
		for k := range out {
			ang := -2 * math.Pi * float64(k*n.Delay) / float64(nb)
			out[k] = cmplx.Exp(complex(0, ang))
		}
		return out
	case KindCustom:
		if n.RespFn == nil {
			panic(fmt.Sprintf("sfg: custom node %q has no response function", n.Name))
		}
		r := n.RespFn(nb)
		if len(r) != nb {
			panic(fmt.Sprintf("sfg: custom node %q returned %d bins, want %d", n.Name, len(r), nb))
		}
		return r
	default:
		panic(fmt.Sprintf("sfg: node %q of kind %v has no frequency response", n.Name, n.Kind))
	}
}

// Graph is a directed signal flow graph with one output node.
type Graph struct {
	nodes []*Node
	succ  map[NodeID][]NodeID
	pred  map[NodeID][]NodeID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{succ: make(map[NodeID][]NodeID), pred: make(map[NodeID][]NodeID)}
}

func (g *Graph) add(n *Node) NodeID {
	n.ID = NodeID(len(g.nodes))
	g.nodes = append(g.nodes, n)
	return n.ID
}

// Input adds a signal entry point.
func (g *Graph) Input(name string) NodeID {
	return g.add(&Node{Name: name, Kind: KindInput})
}

// Output adds the observation point.
func (g *Graph) Output(name string) NodeID {
	return g.add(&Node{Name: name, Kind: KindOutput})
}

// Filter adds an LTI filter block.
func (g *Graph) Filter(name string, f filter.Filter) NodeID {
	return g.add(&Node{Name: name, Kind: KindFilter, Filt: f})
}

// Gain adds a constant multiplier block.
func (g *Graph) Gain(name string, gain float64) NodeID {
	return g.add(&Node{Name: name, Kind: KindGain, Gain: gain})
}

// Delay adds an integer sample delay block.
func (g *Graph) Delay(name string, samples int) NodeID {
	if samples < 0 {
		panic(fmt.Sprintf("sfg: negative delay %d", samples))
	}
	return g.add(&Node{Name: name, Kind: KindDelay, Delay: samples})
}

// Adder adds a summation node; all incoming edges are summed.
func (g *Graph) Adder(name string) NodeID {
	return g.add(&Node{Name: name, Kind: KindAdder})
}

// Down adds an M-fold decimator.
func (g *Graph) Down(name string, factor int) NodeID {
	if factor < 1 {
		panic(fmt.Sprintf("sfg: down factor %d", factor))
	}
	return g.add(&Node{Name: name, Kind: KindDown, Factor: factor})
}

// Up adds an L-fold expander (zero stuffing).
func (g *Graph) Up(name string, factor int) NodeID {
	if factor < 1 {
		panic(fmt.Sprintf("sfg: up factor %d", factor))
	}
	return g.add(&Node{Name: name, Kind: KindUp, Factor: factor})
}

// Custom adds a block defined by a sampled frequency response.
func (g *Graph) Custom(name string, respFn func(n int) []complex128) NodeID {
	return g.add(&Node{Name: name, Kind: KindCustom, RespFn: respFn})
}

// Connect adds the directed edge from -> to.
func (g *Graph) Connect(from, to NodeID) {
	g.mustNode(from)
	g.mustNode(to)
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
}

// Chain connects the given nodes in sequence and returns the last one.
func (g *Graph) Chain(ids ...NodeID) NodeID {
	for i := 0; i+1 < len(ids); i++ {
		g.Connect(ids[i], ids[i+1])
	}
	return ids[len(ids)-1]
}

// SetNoise attaches a quantization-noise source at the node's output.
func (g *Graph) SetNoise(id NodeID, src qnoise.Source) {
	n := g.mustNode(id)
	s := src
	if s.Name == "" {
		s.Name = n.Name
	}
	n.Noise = &s
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return g.mustNode(id) }

// Nodes returns all nodes in insertion order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Succ returns the successors of id.
func (g *Graph) Succ(id NodeID) []NodeID { return g.succ[id] }

// Pred returns the predecessors of id.
func (g *Graph) Pred(id NodeID) []NodeID { return g.pred[id] }

// NoiseSources returns the IDs of nodes carrying a noise source, in
// insertion order.
func (g *Graph) NoiseSources() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Noise != nil {
			out = append(out, n.ID)
		}
	}
	return out
}

// Inputs returns all input node IDs.
func (g *Graph) Inputs() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == KindInput {
			out = append(out, n.ID)
		}
	}
	return out
}

// OutputNode returns the single output node ID; Validate checks uniqueness.
func (g *Graph) OutputNode() (NodeID, error) {
	var found []NodeID
	for _, n := range g.nodes {
		if n.Kind == KindOutput {
			found = append(found, n.ID)
		}
	}
	if len(found) != 1 {
		return 0, fmt.Errorf("sfg: graph has %d output nodes, want exactly 1", len(found))
	}
	return found[0], nil
}

func (g *Graph) mustNode(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		panic(fmt.Sprintf("sfg: unknown node id %d", id))
	}
	return g.nodes[id]
}

// Validate checks structural invariants: exactly one output, no dangling
// non-output sinks, adders with >= 2 inputs, single-input blocks with
// exactly one predecessor, inputs with none.
func (g *Graph) Validate() error {
	out, err := g.OutputNode()
	if err != nil {
		return err
	}
	for _, n := range g.nodes {
		preds := len(g.pred[n.ID])
		succs := len(g.succ[n.ID])
		switch n.Kind {
		case KindInput:
			if preds != 0 {
				return fmt.Errorf("sfg: input %q has %d predecessors", n.Name, preds)
			}
		case KindOutput:
			if preds != 1 {
				return fmt.Errorf("sfg: output %q has %d predecessors, want 1", n.Name, preds)
			}
			if succs != 0 {
				return fmt.Errorf("sfg: output %q has successors", n.Name)
			}
		case KindAdder:
			if preds < 2 {
				return fmt.Errorf("sfg: adder %q has %d inputs, want >= 2", n.Name, preds)
			}
		default:
			if preds != 1 {
				return fmt.Errorf("sfg: %v node %q has %d inputs, want 1", n.Kind, n.Name, preds)
			}
		}
		if n.Kind != KindOutput && succs == 0 && n.ID != out {
			return fmt.Errorf("sfg: node %q is a dead end", n.Name)
		}
	}
	return nil
}

// TopoSort returns a topological ordering of all nodes, or an error naming
// a cycle if one exists.
func (g *Graph) TopoSort() ([]NodeID, error) {
	indeg := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		indeg[n.ID] = len(g.pred[n.ID])
	}
	var queue []NodeID
	for _, n := range g.nodes {
		if indeg[n.ID] == 0 {
			queue = append(queue, n.ID)
		}
	}
	var order []NodeID
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range g.succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(g.nodes) {
		cyc := g.FindCycle()
		return nil, fmt.Errorf("sfg: graph has a cycle: %v", cyc)
	}
	return order, nil
}

// HasCycle reports whether the graph contains a directed cycle.
func (g *Graph) HasCycle() bool {
	_, err := g.TopoSort()
	return err != nil
}

// FindCycle returns the names of nodes on one directed cycle, or nil.
func (g *Graph) FindCycle() []string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(g.nodes))
	parent := make([]NodeID, len(g.nodes))
	for i := range parent {
		parent[i] = -1
	}
	var cycleStart, cycleEnd NodeID = -1, -1
	var dfs func(u NodeID) bool
	dfs = func(u NodeID) bool {
		color[u] = gray
		for _, v := range g.succ[u] {
			if color[v] == white {
				parent[v] = u
				if dfs(v) {
					return true
				}
			} else if color[v] == gray {
				cycleStart, cycleEnd = v, u
				return true
			}
		}
		color[u] = black
		return false
	}
	for _, n := range g.nodes {
		if color[n.ID] == white && dfs(n.ID) {
			break
		}
	}
	if cycleStart < 0 {
		return nil
	}
	var names []string
	for v := cycleEnd; v != cycleStart; v = parent[v] {
		names = append(names, g.nodes[v].Name)
	}
	names = append(names, g.nodes[cycleStart].Name)
	// Reverse into forward order.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return names
}

// IsMultirate reports whether the graph contains rate-changing nodes.
func (g *Graph) IsMultirate() bool {
	for _, n := range g.nodes {
		if (n.Kind == KindDown || n.Kind == KindUp) && n.Factor > 1 {
			return true
		}
	}
	return false
}
