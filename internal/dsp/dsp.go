// Package dsp provides the basic signal-processing primitives the accuracy
// evaluator is built on: convolution (direct, FFT-based and streaming
// overlap-save), window functions and sinc.
package dsp

import (
	"math"

	"repro/internal/fft"
)

// Convolve returns the full linear convolution of x and h, of length
// len(x)+len(h)-1. It dispatches to direct or FFT convolution based on size.
func Convolve(x, h []float64) []float64 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	// Direct convolution wins for small kernels; the crossover is
	// approximate and unimportant for correctness.
	if len(x)*len(h) <= 4096 {
		return ConvolveDirect(x, h)
	}
	return ConvolveFFT(x, h)
}

// ConvolveDirect computes linear convolution by the defining sum.
func ConvolveDirect(x, h []float64) []float64 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	out := make([]float64, len(x)+len(h)-1)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, hv := range h {
			out[i+j] += xv * hv
		}
	}
	return out
}

// ConvolveFFT computes linear convolution via zero-padded FFTs.
func ConvolveFFT(x, h []float64) []float64 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	n := len(x) + len(h) - 1
	m := fft.NextPow2(n)
	p := fft.NewPlan()
	xb := make([]complex128, m)
	hb := make([]complex128, m)
	for i, v := range x {
		xb[i] = complex(v, 0)
	}
	for i, v := range h {
		hb[i] = complex(v, 0)
	}
	p.ForwardInPlace(xb)
	p.ForwardInPlace(hb)
	for i := range xb {
		xb[i] *= hb[i]
	}
	p.InverseInPlace(xb)
	out := make([]float64, n)
	for i := range out {
		out[i] = real(xb[i])
	}
	return out
}

// Sinc computes the normalized sinc function sin(pi x)/(pi x).
func Sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}
