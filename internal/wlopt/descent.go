package wlopt

import (
	"repro/internal/core"
	"repro/internal/sfg"
)

// descentStrategy is the greedy max-minus-one descent: starting from
// MaxFrac everywhere (which must meet the budget), it repeatedly removes
// one bit from the source whose removal keeps the budget satisfied while
// freeing the most cost, until no single-bit removal is feasible.
type descentStrategy struct{}

// Name implements Strategy.
func (descentStrategy) Name() string { return "descent" }

// Run implements Strategy. Each step scores its candidate removals as one
// oracle round of moves (see trim).
func (descentStrategy) Run(o *Oracle, opt Options) (*Result, error) {
	res := &Result{Fracs: map[string]int{}}
	if err := o.requireFeasible(opt); err != nil {
		return nil, err
	}

	// Uniform baseline: smallest uniform width meeting the budget.
	ufrac, err := UniformBaseline(o, opt)
	if err != nil {
		return nil, err
	}
	o.fillUniform(res, ufrac)

	// Greedy descent from MaxFrac.
	cur, err := trim(o, opt, core.UniformAssignment(o.Sources(), opt.MaxFrac))
	if err != nil {
		return nil, err
	}

	cur.Apply(o.Graph())
	final, err := o.EvaluateGraph()
	if err != nil {
		return nil, err
	}
	res.Power = final
	res.Evaluations = o.Evaluations()
	o.fillFromGraph(res)
	return res, nil
}

// trim runs the greedy bit-removal loop from cur: every step scores all
// feasible single-bit removals as one oracle round of Moves against the
// incumbent — the scalar tier on capable evaluators — and takes the one
// freeing the most cost, until no removal stays under the budget (or the
// run is cancelled, in which case the incumbent is returned as is). It is
// the whole of the descent strategy and the second phase of the hybrid
// strategy.
//
// Feasibility decisions compare scalar move scores against the budget;
// the final reported power is the canonical graph evaluation, which
// agrees with those scores within 1e-12 relative. A budget placed within
// that sliver of an achievable power can therefore report marginally over
// budget — callers needing a hard guarantee should pad the budget by a
// part in 1e12.
func trim(o *Oracle, opt Options, cur core.Assignment) (core.Assignment, error) {
	// The incumbent is owned by the loop (callers hand over a fresh
	// assignment and use only the returned one), so each accepted removal
	// mutates it in place, and the move buffer is reused across steps —
	// the greedy loop allocates nothing per step beyond the oracle round
	// itself.
	moves := make([]core.Move, 0, len(o.Sources()))
	for !o.Cancelled() {
		moves = moves[:0]
		for _, id := range o.Sources() {
			if cur[id] > opt.MinFrac {
				moves = append(moves, core.Move{Source: id, Frac: cur[id] - 1})
			}
		}
		if len(moves) == 0 {
			break
		}
		ps, err := o.PowersMoves(cur, moves)
		if err != nil {
			return nil, err
		}
		// Among the feasible removals take the largest cost gain, then the
		// smallest resulting power (keeps slack for later removals), then
		// the first in source order, so the outcome is deterministic for
		// any worker count.
		best := -1
		for i, mv := range moves {
			if ps[i] > opt.Budget {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			gain, bestGain := o.weights[mv.Source], o.weights[moves[best].Source]
			if gain > bestGain || (gain == bestGain && ps[i] < ps[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		cur[moves[best].Source]--
		o.StepDone(o.Cost(cur), ps[best])
	}
	return cur, nil
}

// Optimize runs the "descent" strategy — the greedy max-minus-one search.
// The graph's source widths are left at the optimized assignment. It is a
// thin wrapper over RunStrategy, kept for the callers that predate the
// strategy registry.
func Optimize(g *sfg.Graph, opt Options) (*Result, error) {
	return RunStrategy(g, "descent", opt)
}
