// Package wlopt implements the application that motivates the paper: the
// fixed-point refinement loop. A word-length optimizer assigns fractional
// bits to every quantization-noise source so that the output noise power
// meets a budget at minimum hardware cost, using one of the analytical
// evaluators from package core as its accuracy oracle. Because every search
// procedure evaluates the system thousands of times, the 3-5 orders of
// magnitude between analytical estimation and Monte-Carlo simulation
// (Fig. 6) is the difference between milliseconds and days. Each greedy
// step or annealing round scores its candidate moves as one oracle round;
// on core.Engine that round is the scalar tier (PowerMoves), which runs
// serially on transfer-cached plans.
//
// The search procedures themselves are pluggable: each one implements
// Strategy and registers itself under a stable name (see strategy.go).
// Four ship with the package — the greedy max-minus-one descent
// ("descent", also reachable as Optimize), the classical min-plus-one
// ascent ("ascent", OptimizeAscent), a hybrid climb-then-trim search
// ("hybrid"), and a seeded simulated-annealing search ("anneal").
package wlopt

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/sfg"
)

// Options configures the optimization.
type Options struct {
	// Budget is the maximum acceptable output noise power.
	Budget float64
	// MinFrac / MaxFrac bound every source's fractional width.
	MinFrac, MaxFrac int
	// CostPerBit weights each source's width in the cost function; nil
	// means unit weight (cost = total fractional bits). Keys are source
	// names.
	CostPerBit map[string]float64
	// Evaluator is the accuracy oracle; nil selects the proposed PSD
	// method with 256 bins, plan-cached and batch-parallel (core.Engine).
	Evaluator core.Evaluator
	// Workers sets the default engine's worker pool; <= 0 selects
	// runtime.GOMAXPROCS(0). The pool widens only tier-2 batches (the
	// uniform baseline's chunks of widths) and, on plans that fall back
	// to full propagation, a round's moved assignments. Candidate rounds
	// on transfer-cached plans go through PowerMoves serially whatever
	// the value. The optimization result is identical for every Workers
	// value — only wall-clock time changes. A caller-provided Evaluator
	// manages its own parallelism (batch-capable evaluators are fanned
	// out; plain evaluators run serially).
	Workers int
	// Seed seeds the randomized strategies ("anneal"); <= 0 selects 1.
	// A fixed seed makes those strategies fully deterministic at any
	// Workers value.
	Seed int64
	// AnnealRounds bounds the annealing strategy's proposal rounds;
	// <= 0 selects a default scaled to the source count.
	AnnealRounds int
	// Context cancels an in-flight search cooperatively: every strategy
	// polls it between greedy steps (via Oracle.Cancelled) and stops
	// early, returning the best assignment reached so far with
	// Result.Cancelled set instead of an error. nil means
	// context.Background() — never cancelled.
	Context context.Context
	// Progress, when non-nil, receives one event after every completed
	// search step (a greedy bit move, or an annealing round). It is
	// called synchronously from the search goroutine, so it must be
	// cheap or hand off to a channel.
	Progress func(ProgressEvent)
}

// ProgressEvent reports one completed search step of a running strategy —
// the unit the service layer streams to watchers.
type ProgressEvent struct {
	// Strategy names the running search procedure.
	Strategy string
	// Step counts completed search steps, starting at 1.
	Step int
	// Cost and Power describe the incumbent assignment after the step.
	Cost  float64
	Power float64
	// Evaluations is the oracle-call count so far.
	Evaluations int
}

func (opt Options) seed() int64 {
	if opt.Seed <= 0 {
		return 1
	}
	return opt.Seed
}

// Result reports the optimized assignment.
type Result struct {
	// Strategy names the search procedure that produced the result.
	Strategy string
	// Fracs is the chosen fractional width per source name.
	Fracs map[string]int
	// Power is the evaluated output noise power of the assignment.
	Power float64
	// Cost is the weighted bit total.
	Cost float64
	// Evaluations counts oracle calls — the quantity the paper's speedup
	// multiplies.
	Evaluations int
	// UniformFrac is the smallest uniform width meeting the budget, for
	// comparison with the non-uniform assignment.
	UniformFrac int
	// UniformCost is the cost of that uniform assignment.
	UniformCost float64
	// Cancelled reports that Options.Context was cancelled before the
	// search finished: the assignment is the best one reached, not the
	// strategy's fixed point, and may not meet the budget.
	Cancelled bool
	// Degraded reports that the search was truncated by a caller deadline
	// rather than abandoned: the assignment is the best-so-far at cutoff
	// and is valid to serve, but a longer-deadlined rerun could improve on
	// it, so it must never become the request's cached canonical answer.
	// Set by the serving tier when it maps a deadline-induced cancellation
	// back onto a live job; RunStrategy itself never sets it.
	Degraded bool
}

// Oracle is the strategy-facing view of the accuracy oracle: it scores
// hypothetical width assignments against the graph under optimization,
// fanning independent candidates across the evaluator's worker pool when
// the evaluator is batch-capable, and counts every call. Strategies receive
// an Oracle from RunStrategy and must route all scoring through it so
// Result.Evaluations stays honest.
type Oracle struct {
	g           *sfg.Graph
	sources     []sfg.NodeID
	weights     []float64 // cost per bit, by NodeID; set for sources only
	ev          core.Evaluator
	batch       core.BatchEvaluator
	scorer      core.MovePowerEvaluator
	evaluations int

	ctx      context.Context
	progress func(ProgressEvent)
	strategy string
	steps    int
}

func newOracle(g *sfg.Graph, opt Options) *Oracle {
	ev := opt.Evaluator
	if ev == nil {
		ev = core.NewEngine(256, opt.Workers)
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	o := &Oracle{g: g, sources: g.NoiseSources(), ev: ev, ctx: ctx, progress: opt.Progress}
	// Weights are looked up by source name once per run; the search loops
	// index them by NodeID.
	o.weights = make([]float64, len(g.Nodes()))
	for _, id := range o.sources {
		o.weights[id] = 1
		if w, ok := opt.CostPerBit[g.Node(id).Noise.Name]; ok {
			o.weights[id] = w
		}
	}
	if b, ok := ev.(core.BatchEvaluator); ok {
		o.batch = b
	}
	if s, ok := ev.(core.MovePowerEvaluator); ok {
		o.scorer = s
	}
	return o
}

// Cancelled reports whether the run's context has been cancelled.
// Strategies poll it between search steps; once it returns true they stop
// exploring and return the best assignment reached so far.
func (o *Oracle) Cancelled() bool {
	select {
	case <-o.ctx.Done():
		return true
	default:
		return false
	}
}

// StepDone records one completed search step, describing the incumbent
// assignment, and forwards it to Options.Progress when set. Strategies
// call it once per greedy move or annealing round.
func (o *Oracle) StepDone(cost, power float64) {
	o.steps++
	if o.progress != nil {
		o.progress(ProgressEvent{
			Strategy:    o.strategy,
			Step:        o.steps,
			Cost:        cost,
			Power:       power,
			Evaluations: o.evaluations,
		})
	}
}

// Steps reports the number of completed search steps so far.
func (o *Oracle) Steps() int { return o.steps }

// Graph returns the graph under optimization. Strategies that mutate it
// (core.Assignment.Apply) own the final state: the graph is left at
// whatever assignment the strategy last applied.
func (o *Oracle) Graph() *sfg.Graph { return o.g }

// Sources lists the noise-source node IDs of the graph, in graph order.
func (o *Oracle) Sources() []sfg.NodeID { return o.sources }

// Weight returns the configured cost-per-bit weight of a source node.
func (o *Oracle) Weight(id sfg.NodeID) float64 { return o.weights[id] }

// Cost computes the weighted bit total of an assignment.
func (o *Oracle) Cost(a core.Assignment) float64 {
	var total float64
	for _, id := range o.sources {
		total += o.weights[id] * float64(a[id])
	}
	return total
}

// moveCost is Cost of a with mv applied, without building the moved
// assignment. It sums the same terms in the same order, so it equals
// Cost of the moved assignment bit for bit.
func (o *Oracle) moveCost(a core.Assignment, mv core.Move) float64 {
	var total float64
	for _, id := range o.sources {
		f := a[id]
		if id == mv.Source {
			f = mv.Frac
		}
		total += o.weights[id] * float64(f)
	}
	return total
}

// Evaluations reports the number of oracle calls so far.
func (o *Oracle) Evaluations() int { return o.evaluations }

// Powers scores assignments, in order; independent candidates fan out
// across the evaluator's worker pool when it is batch-capable. The returned
// powers are identical for every pool width.
func (o *Oracle) Powers(as []core.Assignment) ([]float64, error) {
	o.evaluations += len(as)
	return o.powersOf(as)
}

// powersOf is Powers without the oracle-call accounting.
func (o *Oracle) powersOf(as []core.Assignment) ([]float64, error) {
	out := make([]float64, len(as))
	if o.batch != nil {
		rs, err := o.batch.EvaluateBatch(o.g, as)
		if err != nil {
			return nil, err
		}
		for i, r := range rs {
			out[i] = r.Power
		}
		return out, nil
	}
	saved := core.AssignmentOf(o.g)
	defer saved.Apply(o.g)
	for i, a := range as {
		if a == nil {
			a = saved // the stored widths, which earlier rounds overwrote
		} else if err := a.Check(o.g); err != nil {
			return nil, err
		}
		a.Apply(o.g)
		r, err := o.ev.Evaluate(o.g)
		if err != nil {
			return nil, err
		}
		out[i] = r.Power
	}
	return out, nil
}

// PowersMoves scores single-source width changes applied independently to
// base — the shape of every greedy search step. Each move counts as one
// oracle call, exactly like scoring the equivalent full assignment through
// Powers, so strategies switching between the paths keep identical
// Result.Evaluations. Scalar-capable evaluators (core.Engine) score each
// move through PowerMoves — one σ²-table lookup plus a scalar leaf swap,
// O(1) per move, no Result materialization. Other evaluators, such as the
// PSDEvaluator reference, fall back to scoring the moved assignments
// through Powers' path, agreeing within the documented 1e-12 relative
// contract.
func (o *Oracle) PowersMoves(base core.Assignment, moves []core.Move) ([]float64, error) {
	o.evaluations += len(moves)
	if o.scorer != nil {
		return o.scorer.PowerMoves(o.g, base, moves)
	}
	if base == nil {
		base = core.AssignmentOf(o.g)
	} else if err := base.Check(o.g); err != nil {
		return nil, err
	}
	as := make([]core.Assignment, len(moves))
	for i, mv := range moves {
		if mv.Source < 0 || int(mv.Source) >= len(o.g.Nodes()) || o.g.Node(mv.Source).Noise == nil {
			return nil, fmt.Errorf("wlopt: move on node %d, which is not a noise source", mv.Source)
		}
		a := base.Clone()
		a[mv.Source] = mv.Frac
		as[i] = a
	}
	return o.powersOf(as)
}

// Power scores one assignment.
func (o *Oracle) Power(a core.Assignment) (float64, error) {
	ps, err := o.Powers([]core.Assignment{a})
	if err != nil {
		return 0, err
	}
	return ps[0], nil
}

// EvaluateGraph scores the graph's current widths directly through the
// underlying evaluator — used for the final reported power so that the
// result always matches an independent Evaluate of the mutated graph.
func (o *Oracle) EvaluateGraph() (float64, error) {
	o.evaluations++
	r, err := o.ev.Evaluate(o.g)
	if err != nil {
		return 0, err
	}
	return r.Power, nil
}

// ReportGraphPower is EvaluateGraph without the oracle-call accounting: it
// re-derives the power of an assignment the search loop already scored,
// in the evaluator's canonical Result derivation. Strategies that would
// otherwise report a raw move score use it so the reported power always
// matches an independent Evaluate of the mutated graph bit-for-bit — the
// scalar move scores agree with that derivation within 1e-12 relative but
// not bitwise — without inflating Result.Evaluations for a call that made
// no search decision. Descent, hybrid and anneal keep their historical
// *counted* EvaluateGraph for the same report: their final call predates
// the scalar tier and is pinned by the oracle-call goldens, so switching
// them would silently change every recorded Evaluations figure.
func (o *Oracle) ReportGraphPower() (float64, error) {
	r, err := o.ev.Evaluate(o.g)
	if err != nil {
		return 0, err
	}
	return r.Power, nil
}

// requireFeasible errors unless the all-MaxFrac assignment meets the
// budget — the shared precondition of every search direction.
func (o *Oracle) requireFeasible(opt Options) error {
	p, err := o.Power(core.UniformAssignment(o.sources, opt.MaxFrac))
	if err != nil {
		return err
	}
	if p > opt.Budget {
		return fmt.Errorf("wlopt: budget %g unreachable even at %d fractional bits (power %g)",
			opt.Budget, opt.MaxFrac, p)
	}
	return nil
}

// fillFromGraph records the graph's current source widths and their
// weighted cost into res.
func (o *Oracle) fillFromGraph(res *Result) {
	for _, id := range o.sources {
		n := o.g.Node(id)
		res.Fracs[n.Noise.Name] = n.Noise.Frac
		res.Cost += o.weights[id] * float64(n.Noise.Frac)
	}
}

// fillUniform records the uniform-baseline comparison columns into res.
func (o *Oracle) fillUniform(res *Result, frac int) {
	res.UniformFrac = frac
	for _, id := range o.sources {
		res.UniformCost += o.weights[id] * float64(frac)
	}
}

func checkOptions(opt Options) error {
	if opt.Budget <= 0 {
		return fmt.Errorf("wlopt: budget %g must be positive", opt.Budget)
	}
	if opt.MinFrac < 1 || opt.MaxFrac < opt.MinFrac || opt.MaxFrac > 48 {
		return fmt.Errorf("wlopt: bad width bounds [%d, %d]", opt.MinFrac, opt.MaxFrac)
	}
	return nil
}

// UniformBaseline finds the smallest uniform width meeting the budget,
// scanning downward from MaxFrac-1 and stopping at the first infeasible
// width like the serial scan — but scoring a small chunk of widths per
// oracle round so the batch evaluator can overlap them. The chunk size is
// fixed, so the oracle-call count does not depend on Options.Workers.
func UniformBaseline(o *Oracle, opt Options) (int, error) {
	const chunk = 4
	best := opt.MaxFrac
	for hi := opt.MaxFrac - 1; hi >= opt.MinFrac; hi -= chunk {
		if o.Cancelled() {
			return best, nil
		}
		var widths []core.Assignment
		for f := hi; f >= opt.MinFrac && f > hi-chunk; f-- {
			widths = append(widths, core.UniformAssignment(o.sources, f))
		}
		ps, err := o.Powers(widths)
		if err != nil {
			return 0, err
		}
		for i, p := range ps { // widths[i] is hi-i
			if p > opt.Budget {
				return best, nil
			}
			best = hi - i
		}
	}
	return best, nil
}
