package fixed

import (
	"fmt"
	"math"
)

// This file holds the integer reference the float Quantizer is checked
// against: a signed two's-complement Q(m.f) value stored in int64, with m
// integer bits (including sign) and f fractional bits, representing
// raw * 2^-f.

// OverflowMode selects how values exceeding the integer range behave.
type OverflowMode int

const (
	// Saturate clamps to the most positive / most negative representable
	// value.
	Saturate OverflowMode = iota
	// Wrap keeps the low bits (two's-complement wraparound).
	Wrap
)

// String implements fmt.Stringer.
func (m OverflowMode) String() string {
	switch m {
	case Saturate:
		return "saturate"
	case Wrap:
		return "wrap"
	default:
		return fmt.Sprintf("OverflowMode(%d)", int(m))
	}
}

// Format describes a fixed-point type: total word length W = Int + Frac bits
// (Int includes the sign bit).
type Format struct {
	Int      int // integer bits including sign, >= 1
	Frac     int // fractional bits, >= 0
	Round    RoundMode
	Overflow OverflowMode
}

// NewFormat returns a Format with the given bit split and default
// round-nearest / saturate behaviour.
func NewFormat(intBits, fracBits int) Format {
	return Format{Int: intBits, Frac: fracBits, Round: RoundNearest, Overflow: Saturate}
}

// Validate reports whether the format fits the int64 backing store.
func (f Format) Validate() error {
	if f.Int < 1 {
		return fmt.Errorf("fixed: integer bits %d < 1 (sign bit required)", f.Int)
	}
	if f.Frac < 0 {
		return fmt.Errorf("fixed: negative fractional bits %d", f.Frac)
	}
	if f.Int+f.Frac > 63 {
		return fmt.Errorf("fixed: word length %d exceeds 63-bit backing store", f.Int+f.Frac)
	}
	return nil
}

// Width returns the total word length in bits.
func (f Format) Width() int { return f.Int + f.Frac }

// MaxRaw returns the most positive raw value.
func (f Format) MaxRaw() int64 { return (int64(1) << uint(f.Width()-1)) - 1 }

// MinRaw returns the most negative raw value.
func (f Format) MinRaw() int64 { return -(int64(1) << uint(f.Width()-1)) }

// Value is a fixed-point number: a raw integer interpreted against a Format.
type Value struct {
	Raw int64
	Fmt Format
}

// FromFloat quantizes x into the format, applying the format's rounding to
// the fractional grid and its overflow mode to the integer range.
func FromFloat(x float64, f Format) Value {
	if err := f.Validate(); err != nil {
		panic(err)
	}
	scaled := math.Ldexp(x, f.Frac)
	var raw int64
	switch f.Round {
	case Truncate:
		raw = int64(math.Floor(scaled))
	case RoundNearest:
		raw = int64(math.Floor(scaled + 0.5))
	case RoundConvergent:
		raw = int64(math.RoundToEven(scaled))
	default:
		panic(fmt.Sprintf("fixed: unknown round mode %v", f.Round))
	}
	return Value{Raw: f.clamp(raw), Fmt: f}
}

// clamp applies the overflow mode to a raw value that may exceed the word.
func (f Format) clamp(raw int64) int64 {
	max, min := f.MaxRaw(), f.MinRaw()
	if raw >= min && raw <= max {
		return raw
	}
	switch f.Overflow {
	case Saturate:
		if raw > max {
			return max
		}
		return min
	case Wrap:
		w := uint(f.Width())
		masked := uint64(raw) & ((uint64(1) << w) - 1)
		// Sign-extend.
		if masked&(uint64(1)<<(w-1)) != 0 {
			masked |= ^uint64(0) << w
		}
		return int64(masked)
	default:
		panic(fmt.Sprintf("fixed: unknown overflow mode %v", f.Overflow))
	}
}

// Float returns the real value raw * 2^-Frac.
func (v Value) Float() float64 { return math.Ldexp(float64(v.Raw), -v.Fmt.Frac) }
