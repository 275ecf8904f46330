// Package systems assembles the paper's three experiment benchmarks behind
// one interface:
//
//   - SingleFilter — the Table-I workload: one FIR or IIR block fed by a
//     quantized input signal.
//   - FreqFilter — the Fig. 2 band-pass system: a 16-tap low-pass FIR in
//     the time domain followed by a frequency-domain high-pass stage
//     (16-point FFT, coefficient multiply, inverse FFT) realized with
//     overlap-save, with quantization after each internal stage.
//   - DWT — the Fig. 3 system: an L-level Daubechies 9/7 coder + decoder
//     with quantization after every filter block.
//
// Each system exposes an analytical signal-flow graph (for the evaluators
// in package core) and a Simulate method producing the Monte-Carlo ground
// truth. For SingleFilter and DWT the simulation executes the same graph;
// for FreqFilter it runs a genuine overlap-save pipeline with stage
// quantizers, so the analytical FFT-noise model is validated against a real
// frequency-domain implementation.
package systems

import (
	"fmt"

	"repro/internal/fixed"
	"repro/internal/fxsim"
	"repro/internal/sfg"
)

// System is an experiment benchmark.
type System interface {
	// Name identifies the system in reports.
	Name() string
	// Graph builds the analytical SFG with all quantizers at d fractional
	// bits.
	Graph(d int) (*sfg.Graph, error)
	// Simulate measures the output error by Monte-Carlo at d fractional
	// bits.
	Simulate(d int, cfg SimConfig) (*fxsim.Outcome, error)
}

// SimConfig bundles the Monte-Carlo parameters shared by all systems.
type SimConfig struct {
	// Samples is the stimulus length.
	Samples int
	// Seed makes runs reproducible.
	Seed int64
	// PSDBins requests an error-spectrum estimate when >= 2.
	PSDBins int
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Samples <= 0 {
		c.Samples = 1 << 17
	}
	return c
}

// Mode is the rounding mode used by every quantizer in the benchmark
// systems. The paper's experiments use rounding; truncation adds large,
// easily-predicted mean terms that would mask the spectral effects under
// study.
const Mode = fixed.RoundNearest

func fxConfig(c SimConfig) fxsim.Config {
	return fxsim.Config{
		Samples: c.Samples,
		Seed:    c.Seed,
		PSDBins: c.PSDBins,
	}
}

// graphSimulate runs fxsim on the system's own graph.
func graphSimulate(s System, d int, cfg SimConfig) (*fxsim.Outcome, error) {
	g, err := s.Graph(d)
	if err != nil {
		return nil, err
	}
	return fxsim.Run(g, fxConfig(cfg.withDefaults()))
}

// check validates a fractional width.
func check(d int) error {
	if d < 1 || d > 48 {
		return fmt.Errorf("systems: fractional bits %d outside [1, 48]", d)
	}
	return nil
}
