package wlopt

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sfg"
)

// ascentStrategy is the dual greedy — the classical "min + 1 bit" ascent:
// every source starts at MinFrac and the algorithm repeatedly adds one bit
// to the source whose increment reduces the output noise the most per unit
// cost, until the budget is met. Ascent tends to need fewer oracle calls
// than descent when the answer sits near the bottom of the range; descent
// finds slightly cheaper assignments when most sources need to stay wide.
type ascentStrategy struct{}

// Name implements Strategy.
func (ascentStrategy) Name() string { return "ascent" }

// Run implements Strategy. Each step scores its candidate increments as
// one oracle round of moves (see climb).
func (ascentStrategy) Run(o *Oracle, opt Options) (*Result, error) {
	res := &Result{Fracs: map[string]int{}}
	if err := o.requireFeasible(opt); err != nil {
		return nil, err
	}

	// Ascent from the bottom.
	cur := core.UniformAssignment(o.Sources(), opt.MinFrac)
	power, err := o.Power(cur)
	if err != nil {
		return nil, err
	}
	cur, _, err = climb(o, opt, cur, power)
	if err != nil {
		return nil, err
	}
	cur.Apply(o.Graph())
	// The climb searched on scalar move scores; report the final power in
	// the canonical Result derivation (uncounted — no new decision made),
	// so the result matches an independent Evaluate of the graph exactly.
	final, err := o.ReportGraphPower()
	if err != nil {
		return nil, err
	}
	res.Power = final
	o.fillFromGraph(res)

	// Uniform baseline for comparison.
	ufrac, err := UniformBaseline(o, opt)
	if err != nil {
		return nil, err
	}
	o.fillUniform(res, ufrac)
	res.Evaluations = o.Evaluations()
	return res, nil
}

// climb runs the greedy bit-addition loop from cur (whose power is the
// second argument) until the budget is met, scoring every step's candidate
// increments as one oracle round of Moves against the incumbent (scalar
// move scores on core.Engine). It returns the first feasible assignment
// and its power. A cancelled run returns the incumbent even though it is
// still over budget — the caller reports it with the Cancelled flag. It is
// the core of the ascent strategy and the first phase of the hybrid
// strategy.
func climb(o *Oracle, opt Options, cur core.Assignment, power float64) (core.Assignment, float64, error) {
	// The incumbent is owned by the loop (callers hand over a fresh
	// assignment and use only the returned one), so accepted increments
	// mutate it in place and the move buffer is reused across steps — no
	// per-step allocation beyond the oracle round.
	moves := make([]core.Move, 0, len(o.Sources()))
	for power > opt.Budget && !o.Cancelled() {
		moves = moves[:0]
		for _, id := range o.Sources() {
			if cur[id] < opt.MaxFrac {
				moves = append(moves, core.Move{Source: id, Frac: cur[id] + 1})
			}
		}
		if len(moves) == 0 {
			return nil, 0, fmt.Errorf("wlopt: ascent stuck above budget (power %g > %g)", power, opt.Budget)
		}
		ps, err := o.PowersMoves(cur, moves)
		if err != nil {
			return nil, 0, err
		}
		// Take the largest noise reduction per unit cost. Strict > keeps
		// the first best in source order, matching the serial scan for any
		// worker count.
		best, bestScore := -1, math.Inf(-1)
		for i, mv := range moves {
			if score := (power - ps[i]) / o.weights[mv.Source]; score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			return nil, 0, fmt.Errorf("wlopt: ascent stuck above budget (power %g > %g)", power, opt.Budget)
		}
		cur[moves[best].Source]++
		power = ps[best]
		o.StepDone(o.Cost(cur), power)
	}
	return cur, power, nil
}

// OptimizeAscent runs the "ascent" strategy — the classical min-plus-one
// search. The graph's source widths are left at the result. It is a thin
// wrapper over RunStrategy, kept for the callers that predate the strategy
// registry.
func OptimizeAscent(g *sfg.Graph, opt Options) (*Result, error) {
	return RunStrategy(g, "ascent", opt)
}
