// Package wavelet implements the Daubechies (CDF) 9/7 biorthogonal wavelet
// substrate behind the paper's third benchmark (Fig. 3): the JPEG-2000
// irreversible filter bank, one-level 1-D and multi-level separable 2-D
// transforms with periodic extension and exact perfect reconstruction,
// block-boundary quantization of the 2-D transforms, and construction of
// the 2-level coder/decoder signal-flow graph used by the analytical
// evaluators and the Monte-Carlo simulator.
package wavelet

import (
	"fmt"

	"repro/internal/fixed"
)

// Bank holds a two-channel biorthogonal filter bank: analysis low/high
// (H0, H1) and synthesis low/high (G0, G1) taps, plus the circular
// alignment that makes the periodic transform perfectly reconstructing.
// Use the CDF97 constructor; a Bank literal carries no alignment.
type Bank struct {
	H0, H1, G0, G1 []float64

	off      prOffsets
	resolved bool
}

// prOffsets holds the circular alignment of a bank: the analysis filter
// offsets, the decimation phases of the two subbands, and the synthesis
// filter offsets.
type prOffsets struct {
	offH0, offH1, phA, phD, offG0, offG1 int
}

// mustResolved panics with a helpful message for banks built without an
// alignment; the exported entry points call it once per operation.
func (b Bank) mustResolved() {
	if !b.resolved {
		panic("wavelet: bank offsets unresolved; use CDF97()")
	}
}

// CDF97 returns the Daubechies 9/7 (JPEG-2000 irreversible) filter bank.
// Conventions: all filters causal; with even-phase decimation the cascade
// reconstructs exactly with an overall delay of 7 samples per level.
func CDF97() Bank {
	return Bank{
		off:      prOffsets{offH0: 1, offH1: 0, phA: 0, phD: 1, offG0: 6, offG1: 7},
		resolved: true,
		H0: []float64{
			0.026748757410810, -0.016864118442875, -0.078223266528990,
			0.266864118442875, 0.602949018236360, 0.266864118442875,
			-0.078223266528990, -0.016864118442875, 0.026748757410810,
		},
		H1: []float64{
			0.091271763114250, -0.057543526228500, -0.591271763114250,
			1.115087052457000, -0.591271763114250, -0.057543526228500,
			0.091271763114250,
		},
		G0: []float64{
			-0.091271763114250, -0.057543526228500, 0.591271763114250,
			1.115087052457000, 0.591271763114250, -0.057543526228500,
			-0.091271763114250,
		},
		G1: []float64{
			0.026748757410810, 0.016864118442875, -0.078223266528990,
			-0.266864118442875, 0.602949018236360, -0.266864118442875,
			-0.078223266528990, 0.016864118442875, 0.026748757410810,
		},
	}
}

// cconv computes y[n] = sum_k h[k] x[(n - k + off) mod N].
func cconv(x, h []float64, off int) []float64 {
	n := len(x)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for k, hv := range h {
			s += hv * x[((i-k+off)%n+n)%n]
		}
		y[i] = s
	}
	return y
}

// AnalyzeOnce performs one level of periodic 9/7 analysis on an even-length
// signal, returning the approximation and detail subbands (each half
// length).
func (b Bank) AnalyzeOnce(x []float64) (approx, detail []float64, err error) {
	b.mustResolved()
	n := len(x)
	if n < 2 || n%2 != 0 {
		return nil, nil, fmt.Errorf("wavelet: analysis needs even length >= 2, got %d", n)
	}
	low := cconv(x, b.H0, b.off.offH0)
	high := cconv(x, b.H1, b.off.offH1)
	approx = make([]float64, n/2)
	detail = make([]float64, n/2)
	for i := 0; i < n/2; i++ {
		approx[i] = low[(2*i+b.off.phA)%n]
		detail[i] = high[(2*i+b.off.phD)%n]
	}
	return approx, detail, nil
}

// SynthesizeOnce inverts AnalyzeOnce exactly (periodic extension).
func (b Bank) SynthesizeOnce(approx, detail []float64) ([]float64, error) {
	b.mustResolved()
	if len(approx) != len(detail) {
		return nil, fmt.Errorf("wavelet: subband lengths %d and %d differ", len(approx), len(detail))
	}
	if len(approx) == 0 {
		return nil, fmt.Errorf("wavelet: empty subbands")
	}
	n := 2 * len(approx)
	ua := make([]float64, n)
	ud := make([]float64, n)
	for i := 0; i < len(approx); i++ {
		ua[(2*i+b.off.phA)%n] = approx[i]
		ud[(2*i+b.off.phD)%n] = detail[i]
	}
	ya := cconv(ua, b.G0, b.off.offG0)
	yd := cconv(ud, b.G1, b.off.offG1)
	out := make([]float64, n)
	for i := range out {
		out[i] = ya[i] + yd[i]
	}
	return out, nil
}

// Quantizers configures the fixed-point variants: one quantizer applied at
// every analysis subband output and one at every synthesis filter output
// (the paper's block-boundary noise model for Fig. 3). Either may be nil to
// disable quantization at that stage.
type Quantizers struct {
	Analysis  *fixed.Quantizer
	Synthesis *fixed.Quantizer
}

func applyQ(q *fixed.Quantizer, x []float64) []float64 {
	if q == nil {
		return x
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = q.Apply(v)
	}
	return out
}
