package wlopt

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sfg"
)

// batchOnlyEvaluator hides core.Engine's PowerMoves, forcing the oracle to
// score moves as full assignments. Strategies must behave identically —
// same assignment, same power, same oracle-call count — whichever path
// scores their candidate moves.
type batchOnlyEvaluator struct {
	eng *core.Engine
}

func (b batchOnlyEvaluator) Name() string { return b.eng.Name() }

func (b batchOnlyEvaluator) Evaluate(g *sfg.Graph) (*core.Result, error) {
	return b.eng.Evaluate(g)
}

func (b batchOnlyEvaluator) EvaluateBatch(g *sfg.Graph, as []core.Assignment) ([]*core.Result, error) {
	return b.eng.EvaluateBatch(g, as)
}

// TestStrategiesMovePathEquivalence: every registered strategy run with the
// engine's scalar move scores (PowerMoves) equals the same run with them
// hidden — bit-identical results and identical Result.Evaluations, pinning
// both the scalar scoring path and the oracle-call accounting of
// PowersMoves.
func TestStrategiesMovePathEquivalence(t *testing.T) {
	for _, name := range Strategies() {
		for _, graph := range []string{"two-stage", "dwt"} {
			gm, opt := goldenGraph(t, graph)
			opt.Seed = 5
			viaMoves, err := RunStrategy(gm, name, opt)
			if err != nil {
				t.Fatalf("%s on %s via moves: %v", name, graph, err)
			}
			gb, opt2 := goldenGraph(t, graph)
			opt2.Seed = 5
			opt2.Evaluator = batchOnlyEvaluator{eng: core.NewEngine(256, 1)}
			viaBatch, err := RunStrategy(gb, name, opt2)
			if err != nil {
				t.Fatalf("%s on %s via batch: %v", name, graph, err)
			}
			if !reflect.DeepEqual(viaMoves.Fracs, viaBatch.Fracs) {
				t.Errorf("%s on %s: fracs diverge: moves %v, batch %v", name, graph, viaMoves.Fracs, viaBatch.Fracs)
			}
			if viaMoves.Power != viaBatch.Power || viaMoves.Cost != viaBatch.Cost {
				t.Errorf("%s on %s: power/cost diverge: %.17g/%g vs %.17g/%g",
					name, graph, viaMoves.Power, viaMoves.Cost, viaBatch.Power, viaBatch.Cost)
			}
			if viaMoves.Evaluations != viaBatch.Evaluations {
				t.Errorf("%s on %s: oracle-call accounting diverges: %d via moves, %d via batch",
					name, graph, viaMoves.Evaluations, viaBatch.Evaluations)
			}
			if viaMoves.UniformFrac != viaBatch.UniformFrac || viaMoves.UniformCost != viaBatch.UniformCost {
				t.Errorf("%s on %s: uniform baseline diverges", name, graph)
			}
		}
	}
}

// TestPowersMovesAccounting: PowersMoves counts one oracle call per move on
// both the scalar path and the fallback, and returns powers within the
// 1e-12 relative contract (the scalar tier reassociates the variance sum,
// so cross-path powers are close, not bitwise equal; decision equivalence
// is pinned by TestStrategiesMovePathEquivalence).
func TestPowersMovesAccounting(t *testing.T) {
	g := buildTwoStage(t)
	opt := Options{Budget: 1e-8, MinFrac: 4, MaxFrac: 24}
	base := core.AssignmentOf(g)
	var moves []core.Move
	for _, id := range g.NoiseSources() {
		moves = append(moves, core.Move{Source: id, Frac: base[id] - 1})
	}

	withMoves := newOracle(g, opt)
	if withMoves.scorer == nil {
		t.Fatal("default engine should score moves through PowerMoves")
	}
	p1, err := withMoves.PowersMoves(base, moves)
	if err != nil {
		t.Fatal(err)
	}
	if withMoves.Evaluations() != len(moves) {
		t.Fatalf("scalar path counted %d calls, want %d", withMoves.Evaluations(), len(moves))
	}

	opt.Evaluator = batchOnlyEvaluator{eng: core.NewEngine(256, 1)}
	fallback := newOracle(g, opt)
	if fallback.scorer != nil {
		t.Fatal("batch-only wrapper leaked the move path")
	}
	p2, err := fallback.PowersMoves(base, moves)
	if err != nil {
		t.Fatal(err)
	}
	if fallback.Evaluations() != len(moves) {
		t.Fatalf("fallback counted %d calls, want %d", fallback.Evaluations(), len(moves))
	}
	if len(p1) != len(p2) {
		t.Fatalf("move power counts diverge: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if rel := math.Abs(p1[i]-p2[i]) / math.Max(p1[i], p2[i]); rel > 1e-12 {
			t.Fatalf("move %d powers diverge beyond 1e-12 across paths: scalar %g, fallback %g", i, p1[i], p2[i])
		}
	}
}

// TestOracleAssignmentCoverage: over the PSDEvaluator reference, which
// has neither batch nor move path, PowersMoves and Powers treat a nil
// assignment as the graph's stored widths (even after earlier rounds
// wrote theirs into the graph) and reject one too short to give every
// source a width with an error, never a panic. The graph keeps its
// stored widths either way.
func TestOracleAssignmentCoverage(t *testing.T) {
	g, _ := goldenGraph(t, "dwt")
	sources := g.NoiseSources()
	stored := core.AssignmentOf(g)
	for i, id := range sources {
		stored[id] = 8 + i%4
	}
	stored.Apply(g)
	moves := []core.Move{{Source: sources[0], Frac: 5}, {Source: sources[len(sources)-1], Frac: 13}}
	o := newOracle(g, Options{Evaluator: core.NewPSDEvaluator(64)})
	if o.batch != nil || o.scorer != nil {
		t.Fatal("PSDEvaluator should take the oracle's reference path")
	}

	want, err := o.PowersMoves(core.AssignmentOf(g), moves)
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.PowersMoves(nil, moves)
	if err != nil {
		t.Fatalf("PowersMoves(nil): %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PowersMoves(nil) = %v, want %v", got, want)
	}
	other := core.UniformAssignment(sources, 6)
	ps, err := o.Powers([]core.Assignment{other, nil})
	if err != nil {
		t.Fatalf("Powers with nil: %v", err)
	}
	storedPower, err := o.Power(core.AssignmentOf(g))
	if err != nil {
		t.Fatal(err)
	}
	if ps[1] != storedPower {
		t.Fatalf("nil after another assignment scored %.17g, the stored widths %.17g", ps[1], storedPower)
	}

	short := core.AssignmentOf(g)[:sources[len(sources)-1]]
	name := g.Node(sources[len(sources)-1]).Noise.Name
	for call, err := range map[string]error{
		"PowersMoves": func() error { _, err := o.PowersMoves(short, moves); return err }(),
		"Powers":      func() error { _, err := o.Powers([]core.Assignment{other, short}); return err }(),
	} {
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s on a short assignment = %v, want an error naming %q", call, err, name)
		}
	}
	out, err := g.OutputNode()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []sfg.NodeID{-1, out, sfg.NodeID(len(g.Nodes()))} {
		if _, err := o.PowersMoves(nil, []core.Move{{Source: id, Frac: 8}}); err == nil {
			t.Fatalf("a move on node %d, not a source, was scored", id)
		}
	}
	if !reflect.DeepEqual(core.AssignmentOf(g), stored) {
		t.Fatalf("the oracle left widths %v in the graph, want %v", core.AssignmentOf(g), stored)
	}
}
