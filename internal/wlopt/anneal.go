package wlopt

import (
	"math"
	"math/rand"

	"repro/internal/core"
)

// annealStrategy is a simulated-annealing search over the feasible region:
// it starts from the smallest feasible uniform assignment and proposes
// random single-bit moves, accepting cost increases with the Metropolis
// probability under a geometrically cooling temperature, and reports the
// cheapest feasible assignment seen. Each round's proposals are scored as
// one oracle batch, so they fan out across the worker pool; all randomness
// comes from a rand.Rand seeded with Options.Seed and is drawn in an order
// independent of the pool width, so a fixed seed gives an identical result
// at every Options.Workers value.
//
// Annealing exists for the cost landscapes the greedy directions handle
// badly: strongly weighted CostPerBit maps and graphs whose sources
// interact, where a locally-worst single move enables a globally cheaper
// assignment. On separable problems it matches greedy at a higher oracle
// budget.
type annealStrategy struct{}

// Name implements Strategy.
func (annealStrategy) Name() string { return "anneal" }

// annealProposals is the number of candidate moves scored per round (one
// oracle batch). Fixed, so the oracle-call count is reproducible.
const annealProposals = 8

// Run implements Strategy.
func (annealStrategy) Run(o *Oracle, opt Options) (*Result, error) {
	res := &Result{Fracs: map[string]int{}}
	if err := o.requireFeasible(opt); err != nil {
		return nil, err
	}
	sources := o.Sources()

	// Start from the smallest feasible uniform width — the same baseline
	// the result reports, so the search can only improve on it.
	ufrac, err := UniformBaseline(o, opt)
	if err != nil {
		return nil, err
	}
	o.fillUniform(res, ufrac)
	cur := core.UniformAssignment(sources, ufrac)
	curPower, err := o.Power(cur)
	if err != nil {
		return nil, err
	}
	curCost := o.Cost(cur)
	best, bestCost, bestPower := cur, curCost, curPower

	rounds := opt.AnnealRounds
	if rounds <= 0 {
		rounds = 24 + 8*len(sources)
	}
	if opt.MinFrac == opt.MaxFrac {
		// Degenerate range: the uniform start is the only assignment.
		rounds = 0
	}
	rng := rand.New(rand.NewSource(opt.seed()))
	// Initial temperature of one max-weight bit: a single uphill bit is
	// freely accepted early on, and exponentially unlikely by the end.
	temp := 0.0
	for _, id := range sources {
		temp = math.Max(temp, o.Weight(id))
	}
	cooling := math.Pow(0.02, 1/float64(rounds)) // temp ends at 2 % of start

	for r := 0; r < rounds; r++ {
		if o.Cancelled() {
			break
		}
		props := make([]core.Assignment, 0, annealProposals)
		moves := make([]core.Move, 0, annealProposals)
		for k := 0; k < annealProposals; k++ {
			a := cur.Clone()
			id := sources[rng.Intn(len(sources))]
			down := rng.Intn(2) == 0
			if down && a[id] > opt.MinFrac {
				a[id]--
			} else if a[id] < opt.MaxFrac {
				a[id]++
			} else {
				a[id]-- // at MaxFrac with an up draw; MinFrac < MaxFrac here
			}
			props = append(props, a)
			moves = append(moves, core.Move{Source: id, Frac: a[id]})
		}
		// Each proposal is a single-source change off cur, so the round is
		// scored through the oracle's move path (scalar move scores on
		// core.Engine); the proposed assignments are kept for the
		// acceptance bookkeeping below.
		ps, err := o.PowersMoves(cur, moves)
		if err != nil {
			return nil, err
		}
		for i, a := range props {
			if ps[i] > opt.Budget {
				continue // stay inside the feasible region
			}
			d := o.Cost(a) - curCost
			if d > 0 && rng.Float64() >= math.Exp(-d/temp) {
				continue
			}
			cur, curPower, curCost = a, ps[i], curCost+d
			if curCost < bestCost || (curCost == bestCost && curPower < bestPower) {
				best, bestCost, bestPower = cur, curCost, curPower
			}
			break // one accepted move per round
		}
		o.StepDone(curCost, curPower)
		temp *= cooling
	}

	best.Apply(o.Graph())
	final, err := o.EvaluateGraph()
	if err != nil {
		return nil, err
	}
	res.Power = final
	o.fillFromGraph(res)
	res.Evaluations = o.Evaluations()
	return res, nil
}
