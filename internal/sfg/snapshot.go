package sfg

import "fmt"

// Snapshot is a frozen structural view of a Graph, precomputed once so that
// many goroutines can walk the same graph without re-validating, re-sorting
// or hashing node IDs per call: topological order and positions, successor
// lists, the output node and the noise sources, all indexed by NodeID.
//
// A Snapshot freezes structure, not node contents: it shares the underlying
// *Node values with the originating Graph. Concurrent readers are safe as
// long as nobody mutates the graph (edges, nodes, or node fields such as
// Noise.Frac) while the snapshot is in use. Code that needs to evaluate many
// hypothetical noise-width assignments concurrently should therefore carry
// the widths out-of-band (see core.Assignment) instead of writing them into
// the shared nodes.
type Snapshot struct {
	graph   *Graph
	order   []NodeID
	pos     []int      // by NodeID; position in order
	succ    [][]NodeID // by NodeID
	nodes   []*Node    // by NodeID
	out     NodeID
	sources []NodeID
}

// Snapshot validates the graph and captures its structure. It fails exactly
// where evaluation would: on structural violations, on cycles (run
// BreakLoops first), and on a missing or duplicate output node.
func (g *Graph) Snapshot() (*Snapshot, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	out, err := g.OutputNode()
	if err != nil {
		return nil, err
	}
	s := &Snapshot{
		graph:   g,
		order:   order,
		pos:     make([]int, len(g.nodes)),
		succ:    make([][]NodeID, len(g.nodes)),
		nodes:   make([]*Node, len(g.nodes)),
		out:     out,
		sources: g.NoiseSources(),
	}
	for i, id := range order {
		s.pos[id] = i
	}
	for _, n := range g.nodes {
		s.nodes[n.ID] = n
		s.succ[n.ID] = append([]NodeID(nil), g.succ[n.ID]...)
	}
	return s, nil
}

// Len returns the number of nodes.
func (s *Snapshot) Len() int { return len(s.nodes) }

// Order returns the captured topological order. Callers must not modify it.
func (s *Snapshot) Order() []NodeID { return s.order }

// Pos returns id's position in the topological order.
func (s *Snapshot) Pos(id NodeID) int { return s.pos[id] }

// Succ returns the captured successors of id. Callers must not modify it.
func (s *Snapshot) Succ(id NodeID) []NodeID { return s.succ[id] }

// Node returns the shared node value for id.
func (s *Snapshot) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(s.nodes) {
		panic(fmt.Sprintf("sfg: unknown node id %d", id))
	}
	return s.nodes[id]
}

// OutputNode returns the single output node.
func (s *Snapshot) OutputNode() NodeID { return s.out }

// NoiseSources returns the captured noise-source IDs in insertion order.
// Callers must not modify the slice.
func (s *Snapshot) NoiseSources() []NodeID { return s.sources }
