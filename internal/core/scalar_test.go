package core

import (
	"math"
	"testing"
)

// TestSigmaTableMatchesContribLeaves pins the σ² width tables to their
// bit-identity contract across the full feasible width grid of every
// registry system: for each source and every width the optimizer can
// assign, the table's (σ², μ) pair must equal the per-bin path's leaf
// values (fillLeaf's scale-then-sum and mean product) bit-for-bit, and
// track the profile's scalar energy linearly within 1e-12 (σ²(w) is the
// source variance at w times the unit-variance energy, up to the rounding
// of the per-bin kernel).
func TestSigmaTableMatchesContribLeaves(t *testing.T) {
	for name, g := range registryGraphs(t, 14) {
		eng := NewEngine(64, 1)
		if _, err := eng.Evaluate(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := eng.plan(g)
		if err != nil {
			t.Fatal(err)
		}
		if !p.cached {
			t.Fatalf("%s: plan not on the cached path", name)
		}
		p.sigmaTables()
		st := newContribState(p)
		sources := p.snap.NoiseSources()
		// The grid plus a few off-grid widths, which take the direct
		// computation fallback and must obey the same bit-identity.
		widths := []int{sigmaGridMin - 3, sigmaGridMax + 1, sigmaGridMax + 12}
		for w := sigmaGridMin; w <= sigmaGridMax; w++ {
			widths = append(widths, w)
		}
		for i, id := range sources {
			for _, w := range widths {
				vari, mean := p.sigmaFor(i, w)
				a := AssignmentOf(g)
				a[id] = w
				st.build(a)
				if st.perVar[i] != vari {
					t.Fatalf("%s: source %d width %d: table σ² %.17g != leaf %.17g",
						name, i, w, vari, st.perVar[i])
				}
				if st.leafMean[i] != mean {
					t.Fatalf("%s: source %d width %d: table μ %.17g != leaf %.17g",
						name, i, w, mean, st.leafMean[i])
				}
				m := p.resolveSourceFrac(i, w)
				want := m.Variance * p.profiles[i].energy
				if diff := math.Abs(vari - want); diff > 1e-12*math.Max(vari, want) {
					t.Fatalf("%s: source %d width %d: σ² %g not linear in the profile energy (want ≈ %g)",
						name, i, w, vari, want)
				}
			}
		}
	}
}
