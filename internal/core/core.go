// Package core implements the paper's contribution and its two baselines:
//
//   - PSDEvaluator — the proposed method (Section III): every quantization-
//     noise source's spectrum is propagated from its injection point to the
//     system output on an N_PSD-bin grid. Within LTI regions the propagation
//     keeps the full complex path response per source, so reconvergent paths
//     of the same source recombine coherently (the cross-spectra of Eq. 12
//     are exact); crossing a rate changer destroys phase (the system is only
//     cyclostationary there) and the wave drops to power-domain propagation
//     with the aliasing/imaging rules of package psd — the same
//     approximation the paper makes.
//
//   - AgnosticEvaluator — the PSD-agnostic hierarchical baseline (Fig. 1b,
//     blind propagation): at every block boundary the noise is collapsed to
//     (mean, variance) and re-enters the next block as if it were white.
//     Spectral coloration is lost, which is exactly the error source the
//     paper quantifies in Table II.
//
//   - FlatEvaluator — the classical flat analytical method (Eq. 4, Menard
//     et al.): full source-to-output impulse responses composed in the time
//     domain, K_i = sum h_i^2, with the L_ij mean cross-terms realized by
//     summing signed mean gains before squaring. LTI graphs only.
//
// All evaluators accept graphs from package sfg and report a Result.
package core

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/psd"
	"repro/internal/sfg"
)

// SourceContribution reports one noise source's share of the output error.
type SourceContribution struct {
	// Name is the source name (defaults to the node name).
	Name string
	// Variance is the AC noise power this source contributes at the output.
	Variance float64
	// Mean is the signed mean this source contributes at the output.
	Mean float64
}

// Result is the outcome of an analytical accuracy evaluation. A Result an
// Engine returns is read-only: the engine hands every caller of a uniform
// assignment one shared, memoized Result (see Engine), so a caller that
// needs to change one must copy it first.
type Result struct {
	// Power is the total output error power E[b^2] = Mean^2 + Variance.
	Power float64
	// Mean is the signed output error mean (all source means superposed).
	Mean float64
	// Variance is the AC output error power.
	Variance float64
	// PSD is the output error spectrum (PSD evaluator only; zero-value
	// otherwise). Its Mean field equals Mean.
	PSD psd.PSD
	// PerSource lists each source's contribution in graph order.
	PerSource []SourceContribution
}

// Evaluator is the interface shared by the three analytical methods.
type Evaluator interface {
	// Evaluate computes the output quantization-noise statistics of g.
	Evaluate(g *sfg.Graph) (*Result, error)
	// Name identifies the method in reports.
	Name() string
}

// PSDEvaluator is the proposed method with NPSD frequency bins.
type PSDEvaluator struct {
	// NPSD is the number of PSD samples (bins); the paper sweeps 16..1024.
	NPSD int
}

// NewPSDEvaluator returns the proposed evaluator with n bins.
func NewPSDEvaluator(n int) *PSDEvaluator { return &PSDEvaluator{NPSD: n} }

// Name implements Evaluator.
func (e *PSDEvaluator) Name() string { return fmt.Sprintf("psd(n=%d)", e.NPSD) }

// Evaluate implements Evaluator. It builds a one-shot plan and runs the
// full per-source propagation — the reference path; building a transfer
// cache for a single evaluation would cost more than it saves. Engine runs
// the cached multiply-accumulate against the same propagation and agrees
// within 1e-12 relative (bit-identically on graphs that stay coherent to
// the output when NPSD is a power of two); hot paths that evaluate a graph
// repeatedly should hold an Engine to amortize both plan and cache.
func (e *PSDEvaluator) Evaluate(g *sfg.Graph) (*Result, error) {
	p, err := newGraphPlanMode(g, e.NPSD, true)
	if err != nil {
		return nil, err
	}
	return p.evaluate(nil)
}

// AgnosticEvaluator is the hierarchical moment-only baseline: each block
// boundary collapses the wave to (mean, variance); the next block treats
// its input as spectrally white.
type AgnosticEvaluator struct {
	// NPSD sets the grid on which block power gains are sampled; the
	// method is "complexity-equivalent" to the PSD method at the same N.
	NPSD int
}

// NewAgnosticEvaluator returns the baseline evaluator.
func NewAgnosticEvaluator(n int) *AgnosticEvaluator { return &AgnosticEvaluator{NPSD: n} }

// Name implements Evaluator.
func (e *AgnosticEvaluator) Name() string { return fmt.Sprintf("agnostic(n=%d)", e.NPSD) }

// scalarWave is the agnostic propagation state.
type scalarWave struct {
	mean float64
	vari float64
}

// Evaluate implements Evaluator.
func (e *AgnosticEvaluator) Evaluate(g *sfg.Graph) (*Result, error) {
	if e.NPSD < 2 {
		return nil, fmt.Errorf("core: NPSD %d < 2", e.NPSD)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("core: %w (run BreakLoops first)", err)
	}
	outID, err := g.OutputNode()
	if err != nil {
		return nil, err
	}
	// Per-block white power gain (1/N) sum |H_k|^2 and DC gain.
	type gains struct{ white, dc float64 }
	gn := make(map[sfg.NodeID]gains)
	for _, n := range g.Nodes() {
		if !n.IsLTI() {
			continue
		}
		r := n.Response(e.NPSD)
		var s float64
		for _, h := range r {
			re, im := real(h), imag(h)
			s += re*re + im*im
		}
		gn[n.ID] = gains{white: s / float64(len(r)), dc: real(r[0])}
	}
	pos := make(map[sfg.NodeID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	res := &Result{}
	for _, srcID := range g.NoiseSources() {
		node := g.Node(srcID)
		m := node.Noise.Moments()
		waves := map[sfg.NodeID]*scalarWave{}
		for _, s := range g.Succ(srcID) {
			mergeScalar(waves, s, &scalarWave{mean: m.Mean, vari: m.Variance})
		}
		var contrib scalarWave
		start := pos[srcID]
		for _, id := range order {
			if pos[id] <= start {
				continue
			}
			w, ok := waves[id]
			if !ok {
				continue
			}
			delete(waves, id)
			n := g.Node(id)
			switch n.Kind {
			case sfg.KindAdder, sfg.KindInput:
				// pass-through; summation happens in mergeScalar
			case sfg.KindOutput:
			case sfg.KindFilter, sfg.KindGain, sfg.KindDelay, sfg.KindCustom:
				gg := gn[id]
				w.vari *= gg.white
				w.mean *= gg.dc
			case sfg.KindDown:
				// Per-sample moment propagation: decimation keeps a
				// subset of identically-distributed samples, so mean and
				// variance pass unchanged.
			case sfg.KindUp:
				// Per-sample moment propagation: every noise sample passes
				// through the expander unchanged, so a method blind to the
				// zero-stuffing time structure propagates gain 1. (The
				// time-averaged power actually dilutes by 1/L — but seeing
				// that requires exactly the temporal/spectral information
				// the PSD-agnostic method discards.)
			default:
				return nil, fmt.Errorf("core: agnostic cannot propagate through %v", n.Kind)
			}
			if id == outID {
				contrib = *w
				break
			}
			for _, s := range g.Succ(id) {
				mergeScalar(waves, s, &scalarWave{mean: w.mean, vari: w.vari})
			}
		}
		res.PerSource = append(res.PerSource, SourceContribution{
			Name:     node.Noise.Name,
			Variance: contrib.vari,
			Mean:     contrib.mean,
		})
		res.Mean += contrib.mean
		res.Variance += contrib.vari
	}
	res.Power = res.Mean*res.Mean + res.Variance
	return res, nil
}

func mergeScalar(waves map[sfg.NodeID]*scalarWave, id sfg.NodeID, w *scalarWave) {
	if cur, ok := waves[id]; ok {
		cur.mean += w.mean
		cur.vari += w.vari
		return
	}
	waves[id] = w
}

// FlatEvaluator is the classical flat analytical method (Eq. 4): per-source
// impulse responses are composed in the time domain through the graph and
// K_i = sum_k h_i(k)^2 weights each variance; mean gains sum signed before
// squaring, realizing the L_ij cross-terms. Only LTI graphs (no rate
// changers, no custom blocks without impulse support) are accepted.
type FlatEvaluator struct {
	// MaxImpulse bounds the truncated impulse-response length for IIR
	// blocks; 1<<16 by default via NewFlatEvaluator.
	MaxImpulse int
}

// NewFlatEvaluator returns a flat evaluator with default truncation.
func NewFlatEvaluator() *FlatEvaluator { return &FlatEvaluator{MaxImpulse: 1 << 16} }

// Name implements Evaluator.
func (e *FlatEvaluator) Name() string { return "flat" }

// Evaluate implements Evaluator.
func (e *FlatEvaluator) Evaluate(g *sfg.Graph) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.IsMultirate() {
		return nil, fmt.Errorf("core: flat method requires an LTI (single-rate) graph")
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("core: %w (run BreakLoops first)", err)
	}
	outID, err := g.OutputNode()
	if err != nil {
		return nil, err
	}
	pos := make(map[sfg.NodeID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	maxLen := e.MaxImpulse
	if maxLen <= 0 {
		maxLen = 1 << 16
	}
	res := &Result{}
	for _, srcID := range g.NoiseSources() {
		node := g.Node(srcID)
		m := node.Noise.Moments()
		h, err := e.pathImpulse(g, order, pos, srcID, outID, maxLen)
		if err != nil {
			return nil, err
		}
		var k, dc float64
		for _, v := range h {
			k += v * v
			dc += v
		}
		res.PerSource = append(res.PerSource, SourceContribution{
			Name:     node.Noise.Name,
			Variance: k * m.Variance,
			Mean:     dc * m.Mean,
		})
		res.Mean += dc * m.Mean
		res.Variance += k * m.Variance
	}
	res.Power = res.Mean*res.Mean + res.Variance
	return res, nil
}

// pathImpulse composes the impulse response from srcID's output to outID.
func (e *FlatEvaluator) pathImpulse(
	g *sfg.Graph,
	order []sfg.NodeID,
	pos map[sfg.NodeID]int,
	srcID, outID sfg.NodeID,
	maxLen int,
) ([]float64, error) {
	waves := make(map[sfg.NodeID][]float64)
	for _, s := range g.Succ(srcID) {
		waves[s] = addImpulse(waves[s], []float64{1})
	}
	start := pos[srcID]
	for _, id := range order {
		if pos[id] <= start {
			continue
		}
		h, ok := waves[id]
		if !ok {
			continue
		}
		delete(waves, id)
		n := g.Node(id)
		var out []float64
		switch n.Kind {
		case sfg.KindAdder, sfg.KindOutput, sfg.KindInput:
			out = h
		case sfg.KindGain:
			out = make([]float64, len(h))
			for i, v := range h {
				out[i] = v * n.Gain
			}
		case sfg.KindDelay:
			out = make([]float64, len(h)+n.Delay)
			copy(out[n.Delay:], h)
		case sfg.KindFilter:
			var hb []float64
			if n.Filt.IsFIR() {
				hb = n.Filt.B
			} else {
				hb = truncatedImpulse(n, maxLen)
			}
			out = dsp.Convolve(h, hb)
		default:
			return nil, fmt.Errorf("core: flat method cannot traverse %v node %q", n.Kind, n.Name)
		}
		if len(out) > maxLen {
			out = out[:maxLen]
		}
		if id == outID {
			return out, nil
		}
		for _, s := range g.Succ(id) {
			waves[s] = addImpulse(waves[s], out)
		}
	}
	return nil, nil
}

// truncatedImpulse extracts an IIR impulse response, stopping early when
// the running tail becomes negligible.
func truncatedImpulse(n *sfg.Node, maxLen int) []float64 {
	h := n.Filt.ImpulseResponse(maxLen)
	var total float64
	for _, v := range h {
		total += v * v
	}
	if total == 0 {
		return h[:1]
	}
	var acc float64
	for i, v := range h {
		acc += v * v
		if total-acc < 1e-24*total && i > n.Filt.Order() {
			return h[:i+1]
		}
	}
	return h
}

func addImpulse(dst, src []float64) []float64 {
	if len(src) > len(dst) {
		grown := make([]float64, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// EdPercent is a convenience formatting helper: the Ed metric as a signed
// percentage string.
func EdPercent(ed float64) string {
	if math.IsNaN(ed) {
		return "n/a"
	}
	return fmt.Sprintf("%+.2f%%", 100*ed)
}
