package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/qnoise"
	"repro/internal/sfg"
	"repro/internal/systems"
)

// exactResultsEqual asserts bit-for-bit equality of every Result field —
// the restored-plan contract, stricter than the 1e-12 tier contract.
func exactResultsEqual(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Power != want.Power || got.Variance != want.Variance || got.Mean != want.Mean {
		t.Fatalf("%s: scalar fields diverge: (%v %v %v) vs (%v %v %v)",
			name, got.Power, got.Variance, got.Mean, want.Power, want.Variance, want.Mean)
	}
	if len(got.PSD.Bins) != len(want.PSD.Bins) {
		t.Fatalf("%s: bin count %d vs %d", name, len(got.PSD.Bins), len(want.PSD.Bins))
	}
	for k := range got.PSD.Bins {
		if got.PSD.Bins[k] != want.PSD.Bins[k] {
			t.Fatalf("%s: bin %d diverges: %v vs %v", name, k, got.PSD.Bins[k], want.PSD.Bins[k])
		}
	}
	if len(got.PerSource) != len(want.PerSource) {
		t.Fatalf("%s: per-source count %d vs %d", name, len(got.PerSource), len(want.PerSource))
	}
	for i := range got.PerSource {
		g, w := got.PerSource[i], want.PerSource[i]
		if g.Name != w.Name || g.Variance != w.Variance || g.Mean != w.Mean {
			t.Fatalf("%s: per-source %d diverges: %+v vs %+v", name, i, g, w)
		}
	}
}

// TestPlanSnapshotRoundTripBitIdentical is the registry-wide restore
// property test: for every registry system, a plan restored from a
// snapshot onto a freshly built graph serves results bit-identical to a
// freshly built plan — across assignment evaluation, batch evaluation and
// scalar move scoring — without building a single plan from scratch (no
// propagation, no response sampling).
func TestPlanSnapshotRoundTripBitIdentical(t *testing.T) {
	reg, err := systems.Registry()
	if err != nil {
		t.Fatal(err)
	}
	const npsd = 256
	for _, sys := range reg {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			gFresh, err := sys.Graph(14)
			if err != nil {
				t.Fatal(err)
			}
			fresh := NewEngine(npsd, 1)
			snap, err := fresh.SnapshotPlan(gFresh)
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			if fresh.PlanBuilds() != 1 {
				t.Fatalf("fresh engine built %d plans, want 1", fresh.PlanBuilds())
			}

			gRestored, err := sys.Graph(14)
			if err != nil {
				t.Fatal(err)
			}
			restored := NewEngine(npsd, 1)
			if err := restored.RestorePlan(gRestored, snap); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if mode, err := restored.EvalMode(gRestored); err != nil || mode != EvalModeCached {
				t.Fatalf("restored plan mode %q, %v; want %q", mode, err, EvalModeCached)
			}

			base := AssignmentOf(gFresh)
			baseR := AssignmentOf(gRestored)
			rng := rand.New(rand.NewSource(7))
			alt := base.Clone()
			altR := baseR.Clone()
			// Same widths on matching sources: NoiseSources order is
			// deterministic per system, so index i maps across builds.
			srcF, srcR := gFresh.NoiseSources(), gRestored.NoiseSources()
			for i := range srcF {
				w := 4 + rng.Intn(12)
				alt[srcF[i]] = w
				altR[srcR[i]] = w
			}

			for _, tc := range []struct{ af, ar Assignment }{{nil, nil}, {base, baseR}, {alt, altR}} {
				var want, got *Result
				var err error
				if tc.af == nil {
					want, err = fresh.Evaluate(gFresh)
				} else {
					want, err = fresh.EvaluateAssignment(gFresh, tc.af)
				}
				if err != nil {
					t.Fatalf("fresh evaluate: %v", err)
				}
				if tc.ar == nil {
					got, err = restored.Evaluate(gRestored)
				} else {
					got, err = restored.EvaluateAssignment(gRestored, tc.ar)
				}
				if err != nil {
					t.Fatalf("restored evaluate: %v", err)
				}
				exactResultsEqual(t, "evaluate", got, want)
			}

			// One greedy step's worth of moves, plus random widths.
			movesF := movesOf(base, srcF, 2, 18, rand.New(rand.NewSource(3)))
			movesR := movesOf(baseR, srcR, 2, 18, rand.New(rand.NewSource(3)))
			wantPow, err := fresh.PowerMoves(gFresh, base, movesF)
			if err != nil {
				t.Fatal(err)
			}
			gotPow, err := restored.PowerMoves(gRestored, baseR, movesR)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantPow {
				if gotPow[i] != wantPow[i] {
					t.Fatalf("scalar move %d diverges: %v vs %v", i, gotPow[i], wantPow[i])
				}
			}

			// The restored engine must never have built a plan: restore is
			// the whole point — zero propagation, zero response sampling.
			if restored.PlanBuilds() != 0 {
				t.Fatalf("restored engine built %d plans, want 0", restored.PlanBuilds())
			}
			if restored.PlanRestores() != 1 {
				t.Fatalf("restored engine restored %d plans, want 1", restored.PlanRestores())
			}
		})
	}
}

// TestSnapshotPlanFullModeRefuses: the full-propagation fallback has no
// width-independent warm state, so SnapshotPlan must refuse it.
func TestSnapshotPlanFullModeRefuses(t *testing.T) {
	g, err := systems.NewDWT().Graph(12)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(128, 1)
	eng.SetFullPropagation(true)
	if _, err := eng.SnapshotPlan(g); !errors.Is(err, ErrPlanNotCached) {
		t.Fatalf("snapshot of full-mode plan: err = %v, want ErrPlanNotCached", err)
	}
}

// TestRestorePlanValidation: shape and identity mismatches are rejected
// before anything is installed.
func TestRestorePlanValidation(t *testing.T) {
	g, err := systems.NewDWT().Graph(12)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(128, 1)
	snap, err := eng.SnapshotPlan(g)
	if err != nil {
		t.Fatal(err)
	}

	g2, err := systems.NewDWT().Graph(12)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewEngine(256, 1).RestorePlan(g2, snap); err == nil {
		t.Fatal("restore with mismatched NPSD must fail")
	}
	if err := NewEngine(128, 1).RestorePlan(g2, nil); err == nil {
		t.Fatal("restore with nil snapshot must fail")
	}

	renamed := *snap
	renamed.Sources = append([]SourcePlanState(nil), snap.Sources...)
	renamed.Sources[0].Name = "not-a-source"
	if err := NewEngine(128, 1).RestorePlan(g2, &renamed); err == nil {
		t.Fatal("restore with mismatched source name must fail")
	}

	truncated := *snap
	truncated.Sources = snap.Sources[:1]
	if err := NewEngine(128, 1).RestorePlan(g2, &truncated); err == nil {
		t.Fatal("restore with missing sources must fail")
	}

	badBins := *snap
	badBins.Sources = append([]SourcePlanState(nil), snap.Sources...)
	badBins.Sources[0].Bins = badBins.Sources[0].Bins[:10]
	if err := NewEngine(128, 1).RestorePlan(g2, &badBins); err == nil {
		t.Fatal("restore with truncated bins must fail")
	}

	// A graph with an already-warm plan is left untouched.
	warm := NewEngine(128, 1)
	if _, err := warm.Evaluate(g2); err != nil {
		t.Fatal(err)
	}
	if err := warm.RestorePlan(g2, snap); err != nil {
		t.Fatalf("restore onto warm graph: %v", err)
	}
	if warm.PlanRestores() != 0 {
		t.Fatalf("restore onto warm graph must be a no-op, counted %d restores", warm.PlanRestores())
	}

	// A different system's graph fails on source identity.
	other := sfg.New()
	in := other.Input("in")
	out := other.Output("out")
	other.Connect(in, out)
	other.SetNoise(in, qnoise.Source{Name: "in.q", Mode: systems.Mode, Frac: 12})
	if err := NewEngine(128, 1).RestorePlan(other, snap); err == nil {
		t.Fatal("restore onto a different topology must fail")
	}
}
