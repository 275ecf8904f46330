package core

import (
	"strings"
	"testing"

	"repro/internal/sfg"
	"repro/internal/systems"
)

// TestAssignmentCoverage pins the dense Assignment's rules on cached and
// forced-full plans: nil stands for the graph's stored widths on every
// entry point, a non-nil assignment too short to give every source a
// width is an error naming the first source it leaves out (never a
// panic, never a fallback to the stored widths), a move on a node
// without a source is an error whatever its ID, and Apply writes only
// source nodes.
func TestAssignmentCoverage(t *testing.T) {
	g, err := systems.NewDWT().Graph(14)
	if err != nil {
		t.Fatal(err)
	}
	sources := g.NoiseSources()
	// Store non-uniform widths, so nil is not served from the uniform
	// memo and a fallback to any other widths would show.
	stored := AssignmentOf(g)
	for i, id := range sources {
		stored[id] = 6 + i%5
	}
	stored.Apply(g)
	moves := []Move{{Source: sources[0], Frac: 9}, {Source: sources[len(sources)-1], Frac: 4}}
	mid := sources[len(sources)/2]
	shorts := map[string]Assignment{
		"empty":     {},
		"truncated": AssignmentOf(g)[:mid],
	}
	firstUncovered := map[string]sfg.NodeID{"empty": sources[0], "truncated": mid}

	for _, force := range []bool{false, true} {
		eng := NewEngine(64, 2)
		eng.SetFullPropagation(force)
		label := map[bool]string{false: "cached", true: "full"}[force]

		want, err := eng.EvaluateAssignment(g, AssignmentOf(g))
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.EvaluateAssignment(g, nil)
		if err != nil {
			t.Fatalf("%s: EvaluateAssignment(nil): %v", label, err)
		}
		exactResultsEqual(t, label+"/EvaluateAssignment(nil)", got, want)
		rs, err := eng.EvaluateBatch(g, []Assignment{nil, AssignmentOf(g)})
		if err != nil {
			t.Fatalf("%s: EvaluateBatch with nil: %v", label, err)
		}
		exactResultsEqual(t, label+"/EvaluateBatch[nil]", rs[0], want)
		exactResultsEqual(t, label+"/EvaluateBatch[stored]", rs[1], want)
		wantPs, err := eng.PowerMoves(g, AssignmentOf(g), moves)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := eng.PowerMoves(g, nil, moves)
		if err != nil {
			t.Fatalf("%s: PowerMoves(nil): %v", label, err)
		}
		for i := range ps {
			if ps[i] != wantPs[i] {
				t.Fatalf("%s: PowerMoves(nil) move %d = %.17g, want %.17g", label, i, ps[i], wantPs[i])
			}
		}

		out, err := g.OutputNode()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []sfg.NodeID{-1, out, sfg.NodeID(len(g.Nodes()))} {
			if _, err := eng.PowerMoves(g, nil, []Move{{Source: id, Frac: 8}}); err == nil {
				t.Fatalf("%s: a move on node %d, not a source, was scored", label, id)
			}
		}

		for name, short := range shorts {
			wantErr := func(call string, err error) {
				t.Helper()
				src := g.Node(firstUncovered[name]).Noise.Name
				if err == nil || !strings.Contains(err.Error(), src) {
					t.Fatalf("%s/%s: %s = %v, want an error naming %q", label, name, call, err, src)
				}
			}
			_, err := eng.EvaluateAssignment(g, short)
			wantErr("EvaluateAssignment", err)
			_, err = eng.EvaluateBatch(g, []Assignment{AssignmentOf(g), short})
			wantErr("EvaluateBatch", err)
			_, err = eng.PowerMoves(g, short, moves)
			wantErr("PowerMoves", err)
			wantErr("Check", short.Check(g))
		}
	}
	if err := AssignmentOf(g).Check(g); err != nil {
		t.Fatalf("a full assignment fails Check: %v", err)
	}
	if err := Assignment(nil).Check(g); err != nil {
		t.Fatalf("nil fails Check: %v", err)
	}

	// Apply writes source widths only; entries of other nodes are
	// ignored, and nil leaves the graph as it is.
	a := make(Assignment, len(g.Nodes()))
	for i := range a {
		a[i] = 99
	}
	for i, id := range sources {
		a[id] = 4 + i%3
	}
	a.Apply(g)
	Assignment(nil).Apply(g)
	got := AssignmentOf(g)
	if len(got) != len(g.Nodes()) {
		t.Fatalf("AssignmentOf has %d entries for %d nodes", len(got), len(g.Nodes()))
	}
	for _, n := range g.Nodes() {
		switch {
		case n.Noise == nil && got[n.ID] != 0:
			t.Fatalf("AssignmentOf gave node %q, which has no source, width %d", n.Name, got[n.ID])
		case n.Noise != nil && n.Noise.Frac != a[n.ID]:
			t.Fatalf("source %q width %d after Apply, want %d", n.Name, n.Noise.Frac, a[n.ID])
		}
	}
	stored.Apply(g)
}
