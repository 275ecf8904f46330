// Package qnoise implements the Widrow-Kollar pseudo-quantization-noise
// (PQN) model used by the paper (reference [6]): the first two moments of
// the additive noise b = Q(x) - x injected when a signal is quantized to d
// fractional bits, for truncation and rounding, for both continuous-
// amplitude inputs and the discrete case where a signal already on a finer
// grid loses k bits.
//
// Under the PQN model the noise is white (uncorrelated in time), uncorrelated
// with the signal, and uniformly distributed over one quantization step —
// the three properties Section II of the paper requires for analytical
// propagation.
package qnoise

import (
	"fmt"
	"math"

	"repro/internal/fixed"
)

// Moments holds the mean and variance of a quantization-noise source.
type Moments struct {
	Mean     float64
	Variance float64
}

// Continuous returns the PQN moments for quantizing a continuous-amplitude
// signal to frac fractional bits (step q = 2^-frac):
//
//	truncation (floor): b in (-q, 0],  mean = -q/2, variance = q^2/12
//	rounding:           b in [-q/2, q/2), mean = 0, variance = q^2/12
//
// Convergent rounding has the same continuous-input moments as rounding.
func Continuous(mode fixed.RoundMode, frac int) Moments {
	q := math.Ldexp(1, -frac)
	switch mode {
	case fixed.Truncate:
		return Moments{Mean: -q / 2, Variance: q * q / 12}
	case fixed.RoundNearest, fixed.RoundConvergent:
		return Moments{Mean: 0, Variance: q * q / 12}
	default:
		panic(fmt.Sprintf("qnoise: unknown round mode %v", mode))
	}
}

// Discrete returns the exact PQN moments for dropping k = fracIn - fracOut
// bits from a signal already quantized at fracIn fractional bits, assuming
// the eliminated bits are uniformly distributed (Widrow-Kollar):
//
//	truncation: mean = -(q/2)(1 - 2^-k),   variance = (q^2/12)(1 - 2^-2k)
//	rounding:   mean = +(q/2) 2^-k ... (residual half-up bias = q*2^-k/2),
//	            variance = (q^2/12)(1 - 2^-2k)
//
// with q = 2^-fracOut. k <= 0 yields zero moments (no information lost).
func Discrete(mode fixed.RoundMode, fracIn, fracOut int) Moments {
	k := fracIn - fracOut
	if k <= 0 {
		return Moments{}
	}
	q := math.Ldexp(1, -fracOut)
	twoK := math.Ldexp(1, -k)
	variance := q * q / 12 * (1 - twoK*twoK)
	switch mode {
	case fixed.Truncate:
		return Moments{Mean: -q / 2 * (1 - twoK), Variance: variance}
	case fixed.RoundNearest:
		// Round-half-up on a discrete grid lands on +q/2 with probability
		// 2^-k instead of splitting it, leaving a +q*2^-k/2 bias.
		return Moments{Mean: q / 2 * twoK, Variance: variance}
	case fixed.RoundConvergent:
		return Moments{Mean: 0, Variance: variance}
	default:
		panic(fmt.Sprintf("qnoise: unknown round mode %v", mode))
	}
}

// Source describes one additive quantization-noise injection point in a
// system: which rounding mode produced it and at what fractional width. It
// is the unit the evaluators and the simulator agree on.
type Source struct {
	// Name identifies the source in reports (e.g. "fir16.out").
	Name string
	// Mode is the rounding behaviour of the quantizer.
	Mode fixed.RoundMode
	// Frac is the number of fractional bits retained.
	Frac int
	// FracIn, when > Frac, selects the discrete PQN model (the input was
	// already on a 2^-FracIn grid). Zero means continuous-amplitude input.
	FracIn int
	// Override, when non-nil, fixes the source moments directly instead of
	// deriving them from the PQN model. Used for derived sources whose
	// statistics are computed analytically (e.g. the time-domain
	// equivalent of quantizing FFT coefficients inside a frequency-domain
	// filter). The simulator injects additive white noise with these
	// moments rather than quantizing.
	Override *Moments
}

// Moments returns the source moments: the Override when set, otherwise the
// PQN model.
func (s Source) Moments() Moments {
	if s.Override != nil {
		return *s.Override
	}
	if s.FracIn > s.Frac {
		return Discrete(s.Mode, s.FracIn, s.Frac)
	}
	return Continuous(s.Mode, s.Frac)
}
