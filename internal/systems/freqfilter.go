package systems

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/filter"
	"repro/internal/fixed"
	"repro/internal/fxsim"
	"repro/internal/qnoise"
	"repro/internal/sfg"
)

// FreqFilter is the paper's Fig. 2 band-pass system: a 16-tap low-pass FIR
// in the time domain, then a frequency-domain high-pass filter implemented
// by overlap-save (buffer -> 16-point FFT -> multiply by the DFT
// coefficients of the high-pass FIR -> inverse FFT -> unbuffer).
//
// Quantization-noise sources (all at d fractional bits, rounding):
//
//	q1 — input quantization
//	q2 — time-domain FIR output
//	q3 — FFT coefficients (real and imaginary parts)
//	q4 — multiplied coefficients
//	q5 — inverse-FFT output samples
//
// The analytical graph models q3 and q4 by their exact time-domain
// equivalents: quantizing both rectangular components of each of the N_f
// FFT bins injects complex white noise of power q^2/6 per bin, which after
// the 1/N_f inverse transform is white in time with variance q^2/(6 N_f);
// the q3 noise additionally rides through the coefficient multiply and so
// is shaped by |H_hp|^2. (See DESIGN.md, substitution 4, for the block-size
// choice: FFT 16 with a 9-tap high-pass, hop 8.)
type FreqFilter struct {
	// LP is the 16-tap time-domain low-pass; zero value uses the default
	// design (cutoff 0.10).
	LP filter.Filter
	// HP is the frequency-domain high-pass prototype (9 taps, cutoff 0.05
	// by default) applied with FFTSize-point overlap-save.
	HP filter.Filter
	// FFTSize is the overlap-save frame length (16 in the paper).
	FFTSize int
}

// NewFreqFilter returns the Fig. 2 system with the default band edges:
// low-pass at 0.18 and high-pass at 0.14 cycles/sample, i.e. a band-pass
// over roughly [0.14, 0.18]. The edges are chosen so the two stages are
// genuinely frequency-selective against each other — the property that
// separates PSD-aware from PSD-agnostic estimation (Section IV-D).
func NewFreqFilter() (*FreqFilter, error) {
	lp, err := filter.DesignFIR(filter.FIRSpec{
		Band: filter.Lowpass, Taps: 16, F1: 0.18, Window: dsp.Hamming,
	})
	if err != nil {
		return nil, err
	}
	hp, err := filter.DesignFIR(filter.FIRSpec{
		Band: filter.Highpass, Taps: 9, F1: 0.14, Window: dsp.Hamming,
	})
	if err != nil {
		return nil, err
	}
	return &FreqFilter{LP: lp, HP: hp, FFTSize: 16}, nil
}

// Name implements System.
func (s *FreqFilter) Name() string { return "freq-filter(fig2)" }

func (s *FreqFilter) validate() error {
	if len(s.LP.B) == 0 || len(s.HP.B) == 0 {
		return fmt.Errorf("systems: freq-filter missing designs (use NewFreqFilter)")
	}
	if !s.HP.IsFIR() || !s.LP.IsFIR() {
		return fmt.Errorf("systems: freq-filter requires FIR blocks")
	}
	if s.FFTSize < len(s.HP.B) {
		return fmt.Errorf("systems: FFT size %d < high-pass length %d", s.FFTSize, len(s.HP.B))
	}
	return nil
}

// Graph implements System: the analytical model with derived FFT-domain
// sources.
func (s *FreqFilter) Graph(d int) (*sfg.Graph, error) {
	if err := check(d); err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	q := math.Ldexp(1, -d)
	// Complex-coefficient quantization: q^2/12 on each of re and im makes
	// q^2/6 per bin; the unitary pair FFT/IFFT spreads it white in time
	// with variance (q^2/6)/N_f.
	fdVar := q * q / 6 / float64(s.FFTSize)
	g := sfg.New()
	in := g.Input("xin")
	g.SetNoise(in, qnoise.Source{Name: "q1.in", Mode: Mode, Frac: d})
	lp := g.Filter("hlp", s.LP)
	g.SetNoise(lp, qnoise.Source{Name: "q2.fir", Mode: Mode, Frac: d})
	// Attachment point for the FFT-coefficient noise (before the
	// frequency-domain multiply).
	fftPt := g.Gain("fft", 1)
	g.SetNoise(fftPt, qnoise.Source{Name: "q3.fft", Override: &qnoise.Moments{Variance: fdVar}})
	hp := g.Filter("hhp", s.HP)
	g.SetNoise(hp, qnoise.Source{Name: "q4.mul", Override: &qnoise.Moments{Variance: fdVar}})
	ifftPt := g.Gain("ifft", 1)
	g.SetNoise(ifftPt, qnoise.Source{Name: "q5.ifft", Mode: Mode, Frac: d})
	out := g.Output("xout")
	g.Chain(in, lp, fftPt, hp, ifftPt, out)
	return g, nil
}

// Simulate implements System by running the genuine overlap-save pipeline
// with stage quantizers — not the abstract graph — so the analytical model
// is checked against a real frequency-domain implementation.
func (s *FreqFilter) Simulate(d int, cfg SimConfig) (*fxsim.Outcome, error) {
	if err := check(d); err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	fc := fxConfig(cfg.withDefaults())
	fc.Window = dsp.Hann
	qz := fixed.NewQuantizer(d, Mode)
	return fxsim.Measure(fc, func(x []float64) (ref, fx []float64, err error) {
		if ref, err = s.pipeline(x, nil); err != nil {
			return nil, nil, err
		}
		fx, err = s.pipeline(x, qz)
		return ref, fx, err
	})
}

// pipeline runs input -> (quantize) -> LP FIR -> (quantize) -> overlap-save
// HP with per-stage quantization -> output. A nil quantizer selects the
// double-precision reference.
func (s *FreqFilter) pipeline(x []float64, qz *fixed.Quantizer) ([]float64, error) {
	work := append([]float64(nil), x...)
	quantSlice := func(v []float64) {
		if qz == nil {
			return
		}
		qz.ApplySlice(v)
	}
	quantSpec := func(spec []complex128) {
		if qz == nil {
			return
		}
		for i, c := range spec {
			spec[i] = complex(qz.Apply(real(c)), qz.Apply(imag(c)))
		}
	}
	quantSlice(work) // q1
	st := filter.NewState(s.LP)
	work = st.Process(work)
	quantSlice(work) // q2
	os, err := dsp.NewOverlapSave(s.FFTSize, s.HP.B)
	if err != nil {
		return nil, err
	}
	tap := &dsp.StageTap{
		AfterFFT:      quantSpec,  // q3
		AfterMultiply: quantSpec,  // q4
		AfterIFFT:     quantSlice, // q5 (quantize the full frame; the kept
		// region is a subslice so this is equivalent)
	}
	return os.ProcessTapped(work, tap), nil
}
