package sfg

import (
	"fmt"
)

// BreakLoops implements step 1 of the paper's method (Section III-B):
// detect cycles in the SFG and break them, producing an equivalent acyclic
// graph via the classical single-loop transformation (Mason's gain formula
// for one loop):
//
//	A feedback loop through adder A with loop transfer L(F) is replaced by
//	a feed-forward block 1/(1 - L(F)) inserted after A; the loop chain is
//	re-fed from a silent input so noise sources inside the chain keep their
//	correct path H(i->end of chain) * 1/(1-L) * forward-path to the output.
//
// Because evaluation works on sampled frequency responses, 1/(1-L) is exact
// pointwise complex division — no polynomial algebra is needed.
//
// Each cycle must pass through exactly one adder and otherwise contain only
// LTI nodes. Nested or interlocking loops are rejected. The graph is
// modified in place; the returned count is the number of loops broken.
//
// Note: the inserted block has an analytical response only; simulation of
// feedback systems should use IIR filter blocks instead (as the paper's
// benchmarks do).
func (g *Graph) BreakLoops() (int, error) {
	broken := 0
	for iter := 0; iter < len(g.nodes)+1; iter++ {
		if !g.HasCycle() {
			return broken, nil
		}
		cycle := g.findCycleIDs()
		if cycle == nil {
			return broken, fmt.Errorf("sfg: cycle detector disagreement")
		}
		if err := g.breakOne(cycle); err != nil {
			return broken, err
		}
		broken++
	}
	return broken, fmt.Errorf("sfg: loop breaking did not converge (interlocking loops?)")
}

// findCycleIDs returns node IDs along one directed cycle in forward order.
func (g *Graph) findCycleIDs() []NodeID {
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
	var start, end NodeID = -1, -1
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
				start, end = v, u
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
	if start < 0 {
		return nil
	}
	var ids []NodeID
	for v := end; v != start; v = parent[v] {
		ids = append(ids, v)
	}
	ids = append(ids, start)
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids
}

// breakOne rewires a single cycle.
func (g *Graph) breakOne(cycle []NodeID) error {
	// Locate the unique adder.
	adderIdx := -1
	for i, id := range cycle {
		n := g.nodes[id]
		switch {
		case n.Kind == KindAdder:
			if adderIdx >= 0 {
				return fmt.Errorf("sfg: cycle has more than one adder (%q and %q)",
					g.nodes[cycle[adderIdx]].Name, n.Name)
			}
			adderIdx = i
		case n.IsLTI():
			// fine
		default:
			return fmt.Errorf("sfg: cycle contains non-LTI node %q (%v)", n.Name, n.Kind)
		}
	}
	if adderIdx < 0 {
		return fmt.Errorf("sfg: cycle without an adder cannot be broken")
	}
	// Rotate so the adder is first: cycle = A, n1, ..., nk (and nk -> A).
	rot := append(append([]NodeID{}, cycle[adderIdx:]...), cycle[:adderIdx]...)
	adder := rot[0]
	chain := rot[1:]
	if len(chain) == 0 {
		return fmt.Errorf("sfg: self-loop on adder %q", g.nodes[adder].Name)
	}

	// Capture chain nodes for the loop-response closure.
	chainNodes := make([]*Node, len(chain))
	for i, id := range chain {
		chainNodes[i] = g.nodes[id]
	}
	loopResp := func(nb int) []complex128 {
		acc := make([]complex128, nb)
		for i := range acc {
			acc[i] = 1
		}
		for _, cn := range chainNodes {
			r := cn.Response(nb)
			for i := range acc {
				acc[i] *= r[i]
			}
		}
		out := make([]complex128, nb)
		for i := range out {
			out[i] = 1 / (1 - acc[i])
		}
		return out
	}

	// 1. Remove the edge adder -> chain[0].
	if !g.removeEdge(adder, chain[0]) {
		return fmt.Errorf("sfg: expected edge %q -> %q not found",
			g.nodes[adder].Name, g.nodes[chain[0]].Name)
	}
	// 2. Feed the chain from a silent input.
	silent := g.Input(fmt.Sprintf("%s.loopfeed", g.nodes[chain[0]].Name))
	g.Connect(silent, chain[0])
	// 3. Insert the closed-loop block after the adder, taking over the
	// adder's remaining forward successors.
	closed := g.Custom(fmt.Sprintf("%s.closedloop", g.nodes[adder].Name), loopResp)
	forward := append([]NodeID(nil), g.succ[adder]...)
	for _, s := range forward {
		g.removeEdge(adder, s)
		g.Connect(closed, s)
	}
	g.Connect(adder, closed)
	return nil
}

// removeEdge deletes one instance of the edge from -> to, reporting whether
// it existed.
func (g *Graph) removeEdge(from, to NodeID) bool {
	removedSucc := false
	ss := g.succ[from]
	for i, v := range ss {
		if v == to {
			g.succ[from] = append(ss[:i:i], ss[i+1:]...)
			removedSucc = true
			break
		}
	}
	if !removedSucc {
		return false
	}
	ps := g.pred[to]
	for i, v := range ps {
		if v == from {
			g.pred[to] = append(ps[:i:i], ps[i+1:]...)
			break
		}
	}
	return true
}
