package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/qnoise"
	"repro/internal/sfg"
	"repro/internal/systems"
)

// gainGraph builds a tiny throwaway graph for plan-cache churn tests.
func gainGraph(gain float64) *sfg.Graph {
	g := sfg.New()
	in := g.Input("in")
	gn := g.Gain("g", gain)
	o := g.Output("out")
	g.Chain(in, gn, o)
	g.SetNoise(in, qnoise.Source{Mode: systems.Mode, Frac: 10})
	return g
}

// oneMove returns a single -1 move off g's first source.
func oneMove(g *sfg.Graph) (Assignment, []Move) {
	base := AssignmentOf(g)
	id := g.NoiseSources()[0]
	return base, []Move{{Source: id, Frac: base[id] - 1}}
}

// TestPlanCacheRecencyEntryPoints is the eviction-order regression audit:
// every public Engine entry point that resolves a plan must refresh that
// graph's LRU recency, so a graph kept warm through *any* call pattern —
// including move scoring — survives eviction pressure. For each entry
// point: fill a cap-2 cache with A then B, touch A through the entry
// point, insert C, and require that B (not A) was evicted.
func TestPlanCacheRecencyEntryPoints(t *testing.T) {
	touches := map[string]func(e *Engine, g *sfg.Graph) error{
		"Evaluate": func(e *Engine, g *sfg.Graph) error {
			_, err := e.Evaluate(g)
			return err
		},
		"EvaluateAssignment": func(e *Engine, g *sfg.Graph) error {
			_, err := e.EvaluateAssignment(g, AssignmentOf(g))
			return err
		},
		"EvaluateBatch": func(e *Engine, g *sfg.Graph) error {
			_, err := e.EvaluateBatch(g, []Assignment{AssignmentOf(g)})
			return err
		},
		"PowerMoves": func(e *Engine, g *sfg.Graph) error {
			base, moves := oneMove(g)
			_, err := e.PowerMoves(g, base, moves)
			return err
		},
		"EvalMode": func(e *Engine, g *sfg.Graph) error {
			_, err := e.EvalMode(g)
			return err
		},
	}
	for name, touch := range touches {
		t.Run(name, func(t *testing.T) {
			eng := NewEngine(64, 1)
			eng.SetPlanCacheCap(2)
			gA, gB, gC := gainGraph(0.5), gainGraph(0.5), gainGraph(0.5)
			for _, g := range []*sfg.Graph{gA, gB} {
				if _, err := eng.Evaluate(g); err != nil {
					t.Fatal(err)
				}
			}
			if err := touch(eng, gA); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Evaluate(gC); err != nil {
				t.Fatal(err)
			}
			pm := eng.plans.Load().m
			_, hasA := pm[gA]
			_, hasB := pm[gB]
			_, hasC := pm[gC]
			if !hasA || hasB || !hasC {
				t.Fatalf("after touching A via %s: cache kept A=%v B=%v C=%v, want A and C",
					name, hasA, hasB, hasC)
			}
		})
	}
}

// TestEngineConcurrentPlanCache hammers the lock-free read path from many
// goroutines at a deliberately tiny cache cap: some goroutines evaluate
// and move-score one shared warm graph (plan hits racing its own
// eviction), others stream fresh throwaway graphs through the engine
// (plan misses forcing copy-on-write eviction). Every result must match
// its serial reference, the cache must stay bounded, and -race must stay
// quiet — the contract of the snapshot design is that an evicted plan
// stays valid for readers still holding it.
func TestEngineConcurrentPlanCache(t *testing.T) {
	warm, err := systems.NewDWT().Graph(14)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(128, 2)
	eng.SetPlanCacheCap(2)

	warmRef, err := eng.Evaluate(warm)
	if err != nil {
		t.Fatal(err)
	}
	base, moves := oneMove(warm)
	moveRef, err := eng.PowerMoves(warm, base, moves)
	if err != nil {
		t.Fatal(err)
	}
	churnRef, err := eng.Evaluate(gainGraph(0.5))
	if err != nil {
		t.Fatal(err)
	}

	const workers, reps = 8, 20
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				switch (w + rep) % 3 {
				case 0: // plan hit on the shared graph
					r, err := eng.Evaluate(warm)
					if err == nil && r.Power != warmRef.Power {
						err = fmt.Errorf("warm power %g, want %g", r.Power, warmRef.Power)
					}
					if err != nil {
						errs <- err
						return
					}
				case 1: // scalar move scoring on the shared graph
					ps, err := eng.PowerMoves(warm, base, moves)
					if err == nil && ps[0] != moveRef[0] {
						err = fmt.Errorf("warm move score %g, want %g", ps[0], moveRef[0])
					}
					if err != nil {
						errs <- err
						return
					}
				default: // plan miss + eviction racing the hit paths
					r, err := eng.Evaluate(gainGraph(0.5))
					if err == nil && r.Power != churnRef.Power {
						err = fmt.Errorf("churn power %g, want %g", r.Power, churnRef.Power)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.PlanCacheLen(); n > 2 {
		t.Fatalf("plan cache grew to %d under concurrency, cap 2", n)
	}
}

// TestEnsurePlanAndObserver pins the serving tier's plan timing hooks:
// EnsurePlan reports built exactly once per graph, and the observer fires
// next to each PlanBuilds/PlanRestores counter bump with a sane duration.
func TestEnsurePlanAndObserver(t *testing.T) {
	e := NewEngine(64, 1)
	var mu sync.Mutex
	var events []PlanEvent
	e.SetPlanObserver(func(ev PlanEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})

	g := gainGraph(0.5)
	built, err := e.EnsurePlan(g)
	if err != nil || !built {
		t.Fatalf("first EnsurePlan = (%v, %v), want (true, nil)", built, err)
	}
	built, err = e.EnsurePlan(g)
	if err != nil || built {
		t.Fatalf("warm EnsurePlan = (%v, %v), want (false, nil)", built, err)
	}
	if e.PlanBuilds() != 1 {
		t.Errorf("PlanBuilds = %d, want 1", e.PlanBuilds())
	}

	ps, err := e.SnapshotPlan(g)
	if err != nil {
		t.Fatalf("SnapshotPlan: %v", err)
	}
	g2 := gainGraph(0.5)
	if err := e.RestorePlan(g2, ps); err != nil {
		t.Fatalf("RestorePlan: %v", err)
	}
	if built, _ := e.EnsurePlan(g2); built {
		t.Error("EnsurePlan rebuilt a restored plan")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("observer saw %d events, want 2: %+v", len(events), events)
	}
	if events[0].Kind != PlanBuilt || events[1].Kind != PlanRestored {
		t.Errorf("event kinds = %q, %q", events[0].Kind, events[1].Kind)
	}
	for _, ev := range events {
		if ev.Duration < 0 {
			t.Errorf("negative duration in %+v", ev)
		}
	}

	// Removing the observer stops callbacks.
	e.SetPlanObserver(nil)
	if built, err := e.EnsurePlan(gainGraph(0.25)); err != nil || !built {
		t.Fatalf("EnsurePlan after observer removal = (%v, %v)", built, err)
	}
	if len(events) != 2 {
		t.Errorf("observer fired after removal")
	}
}
