package fixed

import (
	"fmt"
	"math"
)

// Quantizer snaps float64 samples onto the 2^-Frac grid with a given
// rounding mode, without range clipping. This is the fast path used by the
// Monte-Carlo simulation engine: it models the additive quantization-noise
// source at a block boundary exactly (the paper's block-level noise model
// concerns precision, not dynamic range).
//
// The grid arithmetic is exact in float64 whenever |x|*2^Frac stays below
// 2^52, which holds with wide margin for the unit-scale signals and
// fractional widths (d <= 32) used throughout the experiments.
type Quantizer struct {
	frac  int
	mode  RoundMode
	scale float64 // 2^frac
	inv   float64 // 2^-frac
}

// NewQuantizer builds a grid quantizer at frac fractional bits.
func NewQuantizer(frac int, mode RoundMode) *Quantizer {
	if frac < 0 || frac > 52 {
		panic(fmt.Sprintf("fixed: quantizer fractional bits %d out of [0,52]", frac))
	}
	return &Quantizer{frac: frac, mode: mode, scale: math.Ldexp(1, frac), inv: math.Ldexp(1, -frac)}
}

// Apply quantizes a single sample.
func (q *Quantizer) Apply(x float64) float64 {
	s := x * q.scale
	switch q.mode {
	case Truncate:
		return math.Floor(s) * q.inv
	case RoundNearest:
		return math.Floor(s+0.5) * q.inv
	case RoundConvergent:
		return math.RoundToEven(s) * q.inv
	default:
		panic(fmt.Sprintf("fixed: unknown round mode %v", q.mode))
	}
}

// ApplySlice quantizes x in place and returns it.
func (q *Quantizer) ApplySlice(x []float64) []float64 {
	for i, v := range x {
		x[i] = q.Apply(v)
	}
	return x
}
