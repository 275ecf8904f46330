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
// one oracle round of moves (PowerMoves on core.Engine); all randomness
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
// oracle round). Fixed, so the oracle-call count is reproducible.
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
	// An accepted move changes cur in place and an improvement is copied
	// into best, so a round allocates nothing beyond its move scores.
	best, bestCost, bestPower := cur.Clone(), curCost, curPower

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

	moves := make([]core.Move, annealProposals)
	for r := 0; r < rounds; r++ {
		if o.Cancelled() {
			break
		}
		// Each proposal is a single-source change off cur, scored through
		// the oracle's move path (scalar move scores on core.Engine).
		for k := range moves {
			id := sources[rng.Intn(len(sources))]
			down := rng.Intn(2) == 0
			f := cur[id]
			switch {
			case down && f > opt.MinFrac:
				f--
			case f < opt.MaxFrac:
				f++
			default:
				f-- // at MaxFrac with an up draw; MinFrac < MaxFrac here
			}
			moves[k] = core.Move{Source: id, Frac: f}
		}
		ps, err := o.PowersMoves(cur, moves)
		if err != nil {
			return nil, err
		}
		for i, mv := range moves {
			if ps[i] > opt.Budget {
				continue // stay inside the feasible region
			}
			// The full ordered sum, not curCost ± weight: curCost
			// accumulates d, and only the same sum keeps fractional
			// weights bit-identical.
			d := o.moveCost(cur, mv) - curCost
			if d > 0 && rng.Float64() >= math.Exp(-d/temp) {
				continue
			}
			cur[mv.Source] = mv.Frac
			curPower, curCost = ps[i], curCost+d
			if curCost < bestCost || (curCost == bestCost && curPower < bestPower) {
				copy(best, cur)
				bestCost, bestPower = curCost, curPower
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
