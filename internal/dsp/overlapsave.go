package dsp

import (
	"fmt"

	"repro/internal/fft"
)

// OverlapSave implements streaming FIR filtering in the frequency domain by
// the overlap-save method: each FFT frame of size N reuses the last L-1
// input samples of the previous frame (L = filter length) and keeps the
// N-L+1 valid circular-convolution outputs. This is the structure of the
// frequency-domain filter stage in the paper's Fig. 2.
//
// The type also exposes the internal stages (forward FFT, coefficient
// multiply, inverse FFT) separately so a fixed-point simulation can inject
// quantization after each stage.
type OverlapSave struct {
	fftSize int
	h       []float64    // time-domain filter taps, length <= fftSize
	hSpec   []complex128 // fftSize-point DFT of h
	hop     int          // valid samples produced per frame = fftSize - len(h) + 1
	history []float64    // last len(h)-1 inputs carried between frames
	plan    *fft.Plan
}

// NewOverlapSave builds an overlap-save convolver with the given FFT size
// and filter taps. fftSize must be at least len(h); fftSize > len(h) is
// required to make progress (hop >= 1 always holds when fftSize >= len(h)).
func NewOverlapSave(fftSize int, h []float64) (*OverlapSave, error) {
	if len(h) == 0 {
		return nil, fmt.Errorf("dsp: overlap-save with empty filter")
	}
	if fftSize < len(h) {
		return nil, fmt.Errorf("dsp: overlap-save FFT size %d < filter length %d", fftSize, len(h))
	}
	os := &OverlapSave{
		fftSize: fftSize,
		h:       append([]float64(nil), h...),
		hop:     fftSize - len(h) + 1,
		history: make([]float64, len(h)-1),
		plan:    fft.NewPlan(),
	}
	hb := make([]complex128, fftSize)
	for i, v := range h {
		hb[i] = complex(v, 0)
	}
	os.plan.ForwardInPlace(hb)
	os.hSpec = hb
	return os, nil
}

// StageTap receives the intermediate frequency- and time-domain frames of
// each overlap-save block, allowing a caller (the fixed-point simulator) to
// quantize them in place between stages.
type StageTap struct {
	// AfterFFT is invoked with the frame spectrum right after the forward
	// transform. May be nil.
	AfterFFT func(spec []complex128)
	// AfterMultiply is invoked after the coefficient multiplication. May be
	// nil.
	AfterMultiply func(spec []complex128)
	// AfterIFFT is invoked with the full time-domain frame after the
	// inverse transform, before the valid region is extracted. May be nil.
	AfterIFFT func(frame []float64)
}

// ProcessTapped filters x and returns exactly len(x) output samples,
// matching what a direct-form FIR with the same taps and zero initial state
// would produce, with the stage taps (nil for none) applied inside every
// frame. Input whose length is not a multiple of the hop is zero-padded
// internally; the padding never leaks into the returned samples, nor into
// the history, so successive calls filter one continuous stream whatever
// their lengths.
func (o *OverlapSave) ProcessTapped(x []float64, tap *StageTap) []float64 {
	nh := len(o.h) - 1
	out := make([]float64, 0, len(x)+o.hop)
	frame := make([]complex128, o.fftSize)
	buf := make([]float64, o.fftSize)
	for start := 0; start < len(x); start += o.hop {
		// Assemble frame: history followed by the next hop inputs
		// (zero-padded at the tail of the signal).
		copy(buf, o.history)
		for i := 0; i < o.hop; i++ {
			idx := start + i
			if idx < len(x) {
				buf[nh+i] = x[idx]
			} else {
				buf[nh+i] = 0
			}
		}
		// Slide history forward before transforming, over the real inputs
		// only: a ragged tail frame's zero padding must not reach the next
		// call.
		if nh > 0 {
			n := min(o.hop, len(x)-start)
			copy(o.history, buf[n:n+nh])
		}
		for i, v := range buf {
			frame[i] = complex(v, 0)
		}
		o.plan.ForwardInPlace(frame)
		if tap != nil && tap.AfterFFT != nil {
			tap.AfterFFT(frame)
		}
		for i := range frame {
			frame[i] *= o.hSpec[i]
		}
		if tap != nil && tap.AfterMultiply != nil {
			tap.AfterMultiply(frame)
		}
		o.plan.InverseInPlace(frame)
		tframe := make([]float64, o.fftSize)
		for i, v := range frame {
			tframe[i] = real(v)
		}
		if tap != nil && tap.AfterIFFT != nil {
			tap.AfterIFFT(tframe)
		}
		out = append(out, tframe[nh:]...)
	}
	return out[:len(x)]
}
