package systems

import (
	"repro/internal/filter"
	"repro/internal/fxsim"
	"repro/internal/qnoise"
	"repro/internal/sfg"
)

// SingleFilter is the Table-I workload: a quantized input propagated
// through one filter block, with the output quantization-noise power
// measured at the filter output. The noise source under study is the input
// quantizer (the paper's "quantized input signal is propagated through the
// chosen filter").
type SingleFilter struct {
	// Filt is the filter under test.
	Filt filter.Filter
	// Label names the system in reports.
	Label string
}

// Name implements System.
func (s *SingleFilter) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return s.Filt.String()
}

// Graph implements System: in (quantized at d) -> filter -> out.
func (s *SingleFilter) Graph(d int) (*sfg.Graph, error) {
	if err := check(d); err != nil {
		return nil, err
	}
	g := sfg.New()
	in := g.Input("in")
	fb := g.Filter("filt", s.Filt)
	out := g.Output("out")
	g.Chain(in, fb, out)
	g.SetNoise(in, qnoise.Source{Name: "in.q", Mode: Mode, Frac: d})
	return g, nil
}

// Simulate implements System.
func (s *SingleFilter) Simulate(d int, cfg SimConfig) (*fxsim.Outcome, error) {
	if err := check(d); err != nil {
		return nil, err
	}
	return graphSimulate(s, d, cfg)
}
