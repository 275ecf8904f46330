package systems

import (
	"fmt"

	"repro/internal/fxsim"
	"repro/internal/sfg"
	"repro/internal/spec"
)

// SpecFor exports the analytical graph of a system at d fractional bits as
// a declarative spec — the wire form the optimization service and the
// scenario suite exchange. Every registry system is expressible (none uses
// custom sampled-response nodes); the exported spec builds a graph that
// evaluates bit-identically to the system's own (see the equivalence
// goldens in spec_test.go).
//
// Note that d is baked into more than the per-source Frac fields for
// systems with derived sources (FreqFilter's FFT-domain noise has its
// variance computed from d), so specs exported at different widths may
// carry different digests — correctly: they describe different noise
// models.
func SpecFor(s System, d int) (*spec.Spec, error) {
	g, err := s.Graph(d)
	if err != nil {
		return nil, err
	}
	return spec.FromGraph(g, s.Name())
}

// RegistrySpecs exports every registry system at d fractional bits, in
// registry order.
func RegistrySpecs(d int) ([]*spec.Spec, error) {
	registry, err := Registry()
	if err != nil {
		return nil, err
	}
	out := make([]*spec.Spec, len(registry))
	for i, sys := range registry {
		if out[i], err = SpecFor(sys, d); err != nil {
			return nil, fmt.Errorf("systems: spec for %s: %w", sys.Name(), err)
		}
	}
	return out, nil
}

// SpecSystem adapts a parsed spec to the System interface, so user-provided
// spec files join the registry sweep in the scenario suite and every other
// place a System is accepted.
type SpecSystem struct {
	sp *spec.Spec
}

// FromSpec wraps a spec as a System. The spec should already be validated
// (Parse guarantees it); Graph surfaces any residual errors.
func FromSpec(sp *spec.Spec) *SpecSystem { return &SpecSystem{sp: sp} }

// Name implements System.
func (s *SpecSystem) Name() string {
	if s.sp.Name != "" {
		return s.sp.Name
	}
	if d, err := s.sp.Digest(); err == nil {
		// "sha256:" + 64 hex digits; label by the first 12.
		return "spec:" + d[len("sha256:"):len("sha256:")+12]
	}
	return "spec:invalid"
}

// Graph implements System: the spec's graph with every PQN-modeled source
// at d fractional bits. Sources with moment overrides keep their fixed
// moments — their statistics are not a function of the assignment, exactly
// as in the hand-written systems.
func (s *SpecSystem) Graph(d int) (*sfg.Graph, error) {
	if err := check(d); err != nil {
		return nil, err
	}
	g, err := s.sp.Build()
	if err != nil {
		return nil, err
	}
	for _, id := range g.NoiseSources() {
		if n := g.Node(id); n.Noise.Override == nil {
			n.Noise.Frac = d
		}
	}
	return g, nil
}

// Simulate implements System by executing the spec's graph sample-exactly.
func (s *SpecSystem) Simulate(d int, cfg SimConfig) (*fxsim.Outcome, error) {
	if err := check(d); err != nil {
		return nil, err
	}
	return graphSimulate(s, d, cfg)
}
