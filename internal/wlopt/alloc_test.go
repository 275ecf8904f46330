package wlopt

import (
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/sfg"
)

// noGC turns the collector off until the returned func runs. A
// collection empties the engine's sync.Pools, and refilling them on the
// next call is not an allocation of the loop under test.
func noGC() func() {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// warmCascade returns the 32-source cascade and options whose evaluator
// is an engine already holding the graph's plan, σ² tables and pooled
// scoring states, so the measurements below see only the search loops.
func warmCascade(t *testing.T) (*sfg.Graph, Options) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	g, opt := searchCase(t, "cascade", "frac", 0)
	opt.Evaluator = core.NewEngine(256, 1)
	if _, err := RunStrategy(g, "hybrid", opt); err != nil {
		t.Fatal(err)
	}
	return g, opt
}

// TestAnnealAllocationsPerRound: an annealing round allocates only the
// slice of move scores. The difference between a long and a short run
// cancels everything outside the round loop.
func TestAnnealAllocationsPerRound(t *testing.T) {
	g, opt := warmCascade(t)
	defer noGC()()
	allocs := func(rounds int) float64 {
		opt := opt
		opt.AnnealRounds = rounds
		return testing.AllocsPerRun(2, func() {
			if _, err := RunStrategy(g, "anneal", opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	const short, long = 200, 2200
	perRound := (allocs(long) - allocs(short)) / (long - short)
	if perRound > 2 {
		t.Fatalf("anneal allocates %.2f objects per round, want at most 2", perRound)
	}
}

// TestGreedyStepAllocations: a trim or climb step allocates only the
// slice PowerMoves returns. Each loop also allocates its move buffer
// once, and a trim scores one more round than it takes steps (the round
// that finds no feasible removal).
func TestGreedyStepAllocations(t *testing.T) {
	g, opt := warmCascade(t)
	type start struct {
		o     *Oracle
		cur   core.Assignment
		power float64
	}
	for _, tc := range []struct {
		name  string
		frac  int
		greed func(s start) error
	}{
		{"trim", opt.MaxFrac, func(s start) error { _, err := trim(s.o, opt, s.cur); return err }},
		{"climb", opt.MinFrac, func(s start) error { _, _, err := climb(s.o, opt, s.cur, s.power); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// AllocsPerRun calls f runs+1 times; each call gets an oracle
			// and a start assignment built outside the measurement. All
			// share one engine, so the first (unmeasured) call leaves its
			// pooled scoring state where the measured calls find it.
			const runs = 2
			var starts []start
			for i := 0; i <= runs; i++ {
				o := newOracle(g, opt)
				cur := core.UniformAssignment(o.Sources(), tc.frac)
				p, err := o.Power(cur)
				if err != nil {
					t.Fatal(err)
				}
				starts = append(starts, start{o, cur, p})
			}
			next := 0
			restore := noGC()
			allocs := testing.AllocsPerRun(runs, func() {
				if err := tc.greed(starts[next]); err != nil {
					t.Fatal(err)
				}
				next++
			})
			restore()
			steps := starts[0].o.Steps()
			if steps < 10 {
				t.Fatalf("%s took %d steps; the measurement needs more", tc.name, steps)
			}
			if allocs > float64(steps+2) {
				t.Fatalf("%s allocates %.1f objects over %d steps, want at most %d (one per round plus the move buffer)",
					tc.name, allocs, steps, steps+2)
			}
		})
	}
}
