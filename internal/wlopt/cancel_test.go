package wlopt

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/sfg"
)

// cancellingOracle wraps a move-scoring evaluator and fires a
// context.CancelFunc after a fixed number of oracle calls, so each strategy
// can be interrupted at a deterministic point mid-search.
type cancellingOracle struct {
	eng    *core.Engine
	cancel context.CancelFunc
	after  int
	calls  int
}

func (c *cancellingOracle) bump() {
	c.calls++
	if c.calls == c.after {
		c.cancel()
	}
}

func (c *cancellingOracle) Name() string { return "cancelling(" + c.eng.Name() + ")" }

func (c *cancellingOracle) Evaluate(g *sfg.Graph) (*core.Result, error) {
	c.bump()
	return c.eng.Evaluate(g)
}

func (c *cancellingOracle) EvaluateBatch(g *sfg.Graph, as []core.Assignment) ([]*core.Result, error) {
	c.bump()
	return c.eng.EvaluateBatch(g, as)
}

func (c *cancellingOracle) PowerMoves(g *sfg.Graph, base core.Assignment, moves []core.Move) ([]float64, error) {
	c.bump()
	return c.eng.PowerMoves(g, base, moves)
}

var _ core.MovePowerEvaluator = (*cancellingOracle)(nil)

func cancelOptions(t *testing.T, ev core.Evaluator, ctx context.Context) Options {
	t.Helper()
	return Options{
		Budget:    1e-8,
		MinFrac:   4,
		MaxFrac:   20,
		Evaluator: ev,
		Seed:      1,
		Context:   ctx,
	}
}

// TestCancelMidSearchPerStrategy interrupts every registered strategy a few
// oracle rounds in and checks the contract: no error, Cancelled set, a
// complete best-so-far assignment within bounds, and strictly fewer oracle
// calls than the uncancelled run.
func TestCancelMidSearchPerStrategy(t *testing.T) {
	for _, name := range Strategies() {
		t.Run(name, func(t *testing.T) {
			full, err := RunStrategy(buildTwoStage(t), name, Options{
				Budget: 1e-8, MinFrac: 4, MaxFrac: 20,
				Evaluator: core.NewEngine(128, 1), Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if full.Cancelled {
				t.Fatal("uncancelled run reports Cancelled")
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Let feasibility plus a few search rounds through, then cancel.
			ev := &cancellingOracle{eng: core.NewEngine(128, 1), cancel: cancel, after: 4}
			g := buildTwoStage(t)
			res, err := RunStrategy(g, name, cancelOptions(t, ev, ctx))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Cancelled {
				t.Fatal("cancelled run does not report Cancelled")
			}
			if len(res.Fracs) != 3 {
				t.Fatalf("cancelled run lost sources: %v", res.Fracs)
			}
			for name, f := range res.Fracs {
				if f < 4 || f > 20 {
					t.Fatalf("source %s width %d outside bounds", name, f)
				}
			}
			if res.Evaluations >= full.Evaluations {
				t.Fatalf("cancelled run used %d oracle calls, full run %d — cancellation did not stop the search",
					res.Evaluations, full.Evaluations)
			}
			// The reported power must still describe the mutated graph.
			check, err := core.NewPSDEvaluator(128).Evaluate(g)
			if err != nil {
				t.Fatal(err)
			}
			if check.Power != res.Power {
				t.Fatalf("graph power %g does not match reported %g", check.Power, res.Power)
			}
		})
	}
}

// TestCancelBeforeStart runs every strategy under an already-cancelled
// context: the search must return immediately with the trivial assignment
// of its direction, still flagged Cancelled, not hang or error.
func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Strategies() {
		t.Run(name, func(t *testing.T) {
			res, err := RunStrategy(buildTwoStage(t), name, cancelOptions(t, core.NewEngine(128, 1), ctx))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Cancelled {
				t.Fatal("run under cancelled context not flagged")
			}
			if len(res.Fracs) != 3 {
				t.Fatalf("fracs %v", res.Fracs)
			}
		})
	}
}

// TestProgressEvents checks the per-step stream: steps count up from 1,
// oracle calls are non-decreasing, and the strategy label matches.
func TestProgressEvents(t *testing.T) {
	for _, name := range Strategies() {
		t.Run(name, func(t *testing.T) {
			var events []ProgressEvent
			res, err := RunStrategy(buildTwoStage(t), name, Options{
				Budget: 1e-8, MinFrac: 4, MaxFrac: 20,
				Evaluator: core.NewEngine(128, 1), Seed: 1,
				Progress: func(ev ProgressEvent) { events = append(events, ev) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatal("no progress events")
			}
			for i, ev := range events {
				if ev.Step != i+1 {
					t.Fatalf("event %d has step %d", i, ev.Step)
				}
				if ev.Strategy != name {
					t.Fatalf("event strategy %q, want %q", ev.Strategy, name)
				}
				if i > 0 && ev.Evaluations < events[i-1].Evaluations {
					t.Fatalf("oracle calls went backwards: %d -> %d", events[i-1].Evaluations, ev.Evaluations)
				}
			}
			if last := events[len(events)-1]; last.Evaluations > res.Evaluations {
				t.Fatalf("last event reports %d evaluations, result %d", last.Evaluations, res.Evaluations)
			}
		})
	}
}
