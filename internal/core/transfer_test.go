package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/filter"
	"repro/internal/fxsim"
	"repro/internal/qnoise"
	"repro/internal/sfg"
	"repro/internal/stats"
	"repro/internal/systems"
)

// registryGraphs builds a fresh graph for every system in the registry.
func registryGraphs(t *testing.T, frac int) map[string]*sfg.Graph {
	t.Helper()
	reg, err := systems.Registry()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*sfg.Graph, len(reg))
	for _, sys := range reg {
		g, err := sys.Graph(frac)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		out[sys.Name()] = g
	}
	return out
}

// TestRegistryPlansValidateTransferCache: every registry topology passes
// the linearity probe, so the hot paths all run the cached multiply-
// accumulate rather than full propagation.
func TestRegistryPlansValidateTransferCache(t *testing.T) {
	for name, g := range registryGraphs(t, 14) {
		eng := NewEngine(256, 1)
		mode, err := eng.EvalMode(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mode != EvalModeCached {
			t.Errorf("%s: eval mode %q, want %q", name, mode, EvalModeCached)
		}
	}
}

// TestCachedMatchesFullPropagation pins the transfer cache to its
// reference: the retained full per-source propagation. The two paths round
// differently where decoherence precedes the output (the source moments
// fold in before versus after the power-domain operations), so equality is
// asserted within 1e-12 relative — and the observed differences are at the
// last-ulp level.
func TestCachedMatchesFullPropagation(t *testing.T) {
	graphs := registryGraphs(t, 14)
	for name, g := range engineTestGraphs(t) {
		graphs["x-"+name] = g
	}
	for name, g := range graphs {
		cached := NewEngine(256, 2)
		full := NewEngine(256, 2)
		full.SetFullPropagation(true)
		if mode, err := full.EvalMode(g); err != nil || mode != EvalModeFull {
			t.Fatalf("%s: forced-full mode = %q, %v", name, mode, err)
		}
		base := AssignmentOf(g)
		alt := base.Clone()
		i := 0
		for id := range alt {
			alt[id] = 5 + i%9
			i++
		}
		for _, a := range []Assignment{nil, base, alt} {
			var got, want *Result
			var err error
			if a == nil {
				got, err = cached.Evaluate(g)
			} else {
				got, err = cached.EvaluateAssignment(g, a)
			}
			if err != nil {
				t.Fatalf("%s: cached: %v", name, err)
			}
			if a == nil {
				want, err = full.Evaluate(g)
			} else {
				want, err = full.EvaluateAssignment(g, a)
			}
			if err != nil {
				t.Fatalf("%s: full: %v", name, err)
			}
			resultsEqual(t, name, got, want, 1e-12)
		}
	}
}

// movesOf builds one ±1 move per source off base (clamped to [lo, hi])
// plus a few random-width moves, deterministic in rng.
func movesOf(base Assignment, sources []sfg.NodeID, lo, hi int, rng *rand.Rand) []Move {
	var moves []Move
	for _, id := range sources {
		f := base[id] + 1 - 2*rng.Intn(2)
		if f < lo {
			f = lo
		}
		if f > hi {
			f = hi
		}
		moves = append(moves, Move{Source: id, Frac: f})
	}
	for k := 0; k < 4; k++ {
		id := sources[rng.Intn(len(sources))]
		moves = append(moves, Move{Source: id, Frac: lo + rng.Intn(hi-lo+1)})
	}
	return moves
}

// relClose reports agreement within 1e-12 relative — the contract between
// the scalar move scores and the batch paths (the same real sum,
// associated per source instead of per bin).
func relClose(x, y float64) bool {
	return x == y || math.Abs(x-y) <= 1e-12*math.Max(math.Abs(x), math.Abs(y))
}

// movedAssignments applies each move independently to base.
func movedAssignments(base Assignment, moves []Move) []Assignment {
	as := make([]Assignment, len(moves))
	for i, mv := range moves {
		as[i] = base.Clone()
		as[i][mv.Source] = mv.Frac
	}
	return as
}

// TestEvaluateMovesEquivalence is the scalar-versus-batch property sweep:
// for every registry system and random width assignments, at worker pools
// of 1 and 4, PowerMoves must agree within 1e-12 relative with the powers
// EvaluateBatch and per-call EvaluateAssignment report for the
// equivalently moved assignments (which are bit-identical to each other),
// and must be bit-identical across the two pool widths.
func TestEvaluateMovesEquivalence(t *testing.T) {
	const lo, hi = 4, 20
	rng := rand.New(rand.NewSource(7))
	for name, g := range registryGraphs(t, 14) {
		sources := g.NoiseSources()
		engines := map[int]*Engine{1: NewEngine(128, 1), 4: NewEngine(128, 4)}
		for trial := 0; trial < 3; trial++ {
			base := make(Assignment, len(g.Nodes()))
			for _, id := range sources {
				base[id] = lo + rng.Intn(hi-lo+1)
			}
			moves := movesOf(base, sources, lo, hi, rng)
			as := movedAssignments(base, moves)
			byWorkers := map[int][]float64{}
			for workers, eng := range engines {
				powers, err := eng.PowerMoves(g, base, moves)
				if err != nil {
					t.Fatalf("%s w=%d: powers: %v", name, workers, err)
				}
				byWorkers[workers] = powers
				batch, err := eng.EvaluateBatch(g, as)
				if err != nil {
					t.Fatalf("%s w=%d: batch: %v", name, workers, err)
				}
				for i := range moves {
					single, err := eng.EvaluateAssignment(g, as[i])
					if err != nil {
						t.Fatalf("%s w=%d: single: %v", name, workers, err)
					}
					resultsEqual(t, name+"/batch-vs-single", batch[i], single, 0)
					if !relClose(powers[i], batch[i].Power) {
						t.Fatalf("%s w=%d: move %d scalar score %.17g vs batch power %.17g beyond 1e-12",
							name, workers, i, powers[i], batch[i].Power)
					}
				}
			}
			for i := range moves {
				if byWorkers[1][i] != byWorkers[4][i] {
					t.Fatalf("%s: move %d scalar score differs across worker counts: %.17g vs %.17g",
						name, i, byWorkers[1][i], byWorkers[4][i])
				}
			}
		}
	}
}

// TestPowerMovesAgainstFullPropagation closes the tier chain: the scalar
// move scores of a cached plan agree with the full per-source propagation
// reference — the moved assignments evaluated on a forced-full engine —
// within the 1e-12 relative contract, for every registry system. On the
// forced engine itself PowerMoves evaluates the moved assignments through
// the batch path and is bit-identical to its EvaluateAssignment powers.
func TestPowerMovesAgainstFullPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, g := range registryGraphs(t, 14) {
		cached := NewEngine(128, 2)
		full := NewEngine(128, 2)
		full.SetFullPropagation(true)
		base := AssignmentOf(g)
		moves := movesOf(base, g.NoiseSources(), 4, 20, rng)
		scalar, err := cached.PowerMoves(g, base, moves)
		if err != nil {
			t.Fatalf("%s: scalar: %v", name, err)
		}
		fullPowers, err := full.PowerMoves(g, base, moves)
		if err != nil {
			t.Fatalf("%s: full powers: %v", name, err)
		}
		for i, a := range movedAssignments(base, moves) {
			ref, err := full.EvaluateAssignment(g, a)
			if err != nil {
				t.Fatalf("%s: full: %v", name, err)
			}
			if !relClose(scalar[i], ref.Power) {
				t.Fatalf("%s: move %d scalar power %g vs full-propagation %g beyond 1e-12",
					name, i, scalar[i], ref.Power)
			}
			if fullPowers[i] != ref.Power {
				t.Fatalf("%s: forced-full PowerMoves %g diverges from its EvaluateAssignment %g",
					name, fullPowers[i], ref.Power)
			}
		}
	}
}

// TestEvaluateMovesFallback: on a forced full-propagation plan PowerMoves
// evaluates the moved assignments through the same propagation
// EvaluateBatch runs, so bit-identity with the assignment path holds there
// too — the fallback degrades cost, not the contract.
func TestEvaluateMovesFallback(t *testing.T) {
	g, err := systems.NewDWT().Graph(14)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(128, 2)
	eng.SetFullPropagation(true)
	base := AssignmentOf(g)
	rng := rand.New(rand.NewSource(3))
	moves := movesOf(base, g.NoiseSources(), 4, 20, rng)
	got, err := eng.PowerMoves(g, base, moves)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range movedAssignments(base, moves) {
		want, err := eng.EvaluateAssignment(g, a)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want.Power {
			t.Fatalf("fallback move %d: power %.17g, want %.17g", i, got[i], want.Power)
		}
	}
}

// TestEvaluateMovesErrors: empty move lists are a no-op; a move on a
// non-source node fails on both evaluation paths.
func TestEvaluateMovesErrors(t *testing.T) {
	g, err := systems.NewDWT().Graph(12)
	if err != nil {
		t.Fatal(err)
	}
	var notSource sfg.NodeID
	for _, n := range g.Nodes() {
		if n.Noise == nil {
			notSource = n.ID
			break
		}
	}
	for _, force := range []bool{false, true} {
		eng := NewEngine(64, 1)
		eng.SetFullPropagation(force)
		if ps, err := eng.PowerMoves(g, AssignmentOf(g), nil); err != nil || ps != nil {
			t.Fatalf("force=%v: empty moves: %v, %v", force, ps, err)
		}
		if _, err := eng.PowerMoves(g, AssignmentOf(g), []Move{{Source: notSource, Frac: 8}}); err == nil {
			t.Fatalf("force=%v: move on non-source node should fail", force)
		}
	}
}

// TestEvaluateMovesConcurrent hammers the pooled scalar state from many
// goroutines alongside full evaluations; every score must match the
// serial reference (and -race must stay quiet).
func TestEvaluateMovesConcurrent(t *testing.T) {
	g, err := systems.NewDWT().Graph(14)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(128, 2)
	base := AssignmentOf(g)
	sources := g.NoiseSources()
	moves := []Move{{Source: sources[0], Frac: 9}, {Source: sources[len(sources)-1], Frac: 6}}
	want, err := eng.PowerMoves(g, base, moves)
	if err != nil {
		t.Fatal(err)
	}
	baseWant, err := eng.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for rep := 0; rep < 20; rep++ {
				if (w+rep)%2 == 0 {
					ps, err := eng.PowerMoves(g, base, moves)
					if err == nil && (ps[0] != want[0] || ps[1] != want[1]) {
						err = errPowerMismatch
					}
					if err != nil {
						done <- err
						return
					}
				} else {
					r, err := eng.Evaluate(g)
					if err == nil && r.Power != baseWant.Power {
						err = errPowerMismatch
					}
					if err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errPowerMismatch = errString("concurrent move evaluation diverged from serial reference")

type errString string

func (e errString) Error() string { return string(e) }

// TestPlanCacheLRU: a stream of throwaway graphs stays bounded at the
// plan-cache cap, touched plans survive eviction preference, and an
// evicted graph transparently re-plans.
func TestPlanCacheLRU(t *testing.T) {
	build := func() *sfg.Graph {
		g := sfg.New()
		in := g.Input("in")
		gn := g.Gain("g", 0.5)
		o := g.Output("out")
		g.Chain(in, gn, o)
		g.SetNoise(in, qnoise.Source{Mode: systems.Mode, Frac: 10})
		return g
	}
	eng := NewEngine(64, 1)
	first := build()
	ref, err := eng.Evaluate(first)
	if err != nil {
		t.Fatal(err)
	}
	// Throwaway stream: far more graphs than the cap.
	for i := 0; i < 5*DefaultPlanCacheCap; i++ {
		if _, err := eng.Evaluate(build()); err != nil {
			t.Fatal(err)
		}
		if n := eng.PlanCacheLen(); n > DefaultPlanCacheCap {
			t.Fatalf("plan cache grew to %d, cap %d", n, DefaultPlanCacheCap)
		}
	}
	// first was evicted long ago; evaluating it again re-plans and agrees.
	again, err := eng.Evaluate(first)
	if err != nil {
		t.Fatal(err)
	}
	if again.Power != ref.Power {
		t.Fatalf("re-planned power %g, want %g", again.Power, ref.Power)
	}

	// Recency: with cap 2, touching A before inserting C must evict B.
	small := NewEngine(64, 1)
	small.SetPlanCacheCap(2)
	gA, gB, gC := build(), build(), build()
	for _, g := range []*sfg.Graph{gA, gB} {
		if _, err := small.Evaluate(g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := small.Evaluate(gA); err != nil { // touch A
		t.Fatal(err)
	}
	if _, err := small.Evaluate(gC); err != nil {
		t.Fatal(err)
	}
	pm := small.plans.Load().m
	_, hasA := pm[gA]
	_, hasB := pm[gB]
	_, hasC := pm[gC]
	if !hasA || hasB || !hasC {
		t.Fatalf("LRU kept A=%v B=%v C=%v, want A and C", hasA, hasB, hasC)
	}

	// Shrinking the cap evicts immediately.
	small.SetPlanCacheCap(1)
	if n := small.PlanCacheLen(); n != 1 {
		t.Fatalf("after shrink cache holds %d plans, want 1", n)
	}
}

// TestMergeDecohereCrossCheck guards the decoherence-at-merge rule (merge
// decoheres with the *source's* moments when a coherent and a power-domain
// wave meet) against sign and phase bugs: a two-path graph — one branch
// staying coherent through a gain, the other decohering at a down/up pair
// — is cross-checked against Monte-Carlo simulation. A sign error in the
// coherent branch or a dropped mean at the junction moves the output power
// far outside the asserted band.
func TestMergeDecohereCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo cross-check")
	}
	hp := mustFIR(t, filter.FIRSpec{Band: filter.Highpass, Taps: 31, F1: 0.3, Window: dsp.Hamming})
	lp := mustFIR(t, filter.FIRSpec{Band: filter.Lowpass, Taps: 31, F1: 0.2, Window: dsp.Hamming})
	g := sfg.New()
	in := g.Input("in")
	direct := g.Filter("hp", hp)
	dn := g.Down("dn", 2)
	up := g.Up("up", 2)
	rec := g.Filter("lp", lp) // reconstruction after the rate pair
	sum := g.Adder("sum")
	out := g.Output("out")
	g.Connect(in, direct)
	g.Connect(in, dn)
	g.Connect(dn, up)
	g.Connect(up, rec)
	g.Connect(rec, sum)
	g.Connect(direct, sum)
	g.Connect(sum, out)
	g.SetNoise(in, qnoise.Source{Mode: systems.Mode, Frac: 8})

	eng := NewEngine(256, 1)
	mode, err := eng.EvalMode(g)
	if err != nil {
		t.Fatal(err)
	}
	if mode != EvalModeCached {
		t.Fatalf("merge graph fell back to %q", mode)
	}
	res, err := eng.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	// The cached and full paths must agree on the merge graph too.
	full := NewEngine(256, 1)
	full.SetFullPropagation(true)
	ref, err := full.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "merge", res, ref, 1e-12)

	sim, err := fxsim.Run(g, fxsim.Config{Samples: 400000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if ed := stats.Ed(sim.Power, res.Power); math.Abs(ed) > 0.15 {
		t.Fatalf("merge-path Ed %s outside ±15%% (analytical %g, simulated %g)",
			EdPercent(ed), res.Power, sim.Power)
	}
}
