// Package filter provides digital filter design and runtime structures: FIR
// design by the windowed-sinc method, IIR design from Butterworth and
// Chebyshev-I analog prototypes via the bilinear transform, frequency
// response evaluation on uniform grids, impulse-response extraction, a
// transposed direct-form-II runtime, and stability testing. It supplies the
// 147-filter FIR and IIR banks of the paper's Table I.
package filter

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/fft"
)

// BandType enumerates the filter functionalities used in the paper's
// Table I experiment (low-pass, high-pass, band-pass) plus band-stop.
type BandType int

const (
	// Lowpass passes frequencies below the cutoff.
	Lowpass BandType = iota
	// Highpass passes frequencies above the cutoff.
	Highpass
	// Bandpass passes frequencies between two cutoffs.
	Bandpass
	// Bandstop rejects frequencies between two cutoffs.
	Bandstop
)

// String implements fmt.Stringer.
func (b BandType) String() string {
	switch b {
	case Lowpass:
		return "lowpass"
	case Highpass:
		return "highpass"
	case Bandpass:
		return "bandpass"
	case Bandstop:
		return "bandstop"
	default:
		return fmt.Sprintf("BandType(%d)", int(b))
	}
}

// Filter is a rational discrete-time transfer function
// H(z) = B(z^-1)/A(z^-1) with A[0] == 1 (normalized). FIR filters have
// A == [1].
type Filter struct {
	B []float64 // feedforward coefficients b0..bM
	A []float64 // feedback coefficients a0..aN with a0 == 1
	// Desc is a human-readable description of the design.
	Desc string
}

// NewFIR wraps taps as an FIR Filter.
func NewFIR(taps []float64, desc string) Filter {
	return Filter{B: append([]float64(nil), taps...), A: []float64{1}, Desc: desc}
}

// IsFIR reports whether the filter has no feedback.
func (f Filter) IsFIR() bool {
	for i, a := range f.A {
		if i == 0 {
			continue
		}
		if a != 0 {
			return false
		}
	}
	return true
}

// Order returns max(len(B), len(A)) - 1.
func (f Filter) Order() int {
	o := len(f.B) - 1
	if len(f.A)-1 > o {
		o = len(f.A) - 1
	}
	return o
}

// Normalize divides all coefficients by A[0] so that A[0] == 1. It panics
// if A is empty or A[0] == 0.
func (f Filter) Normalize() Filter {
	if len(f.A) == 0 || f.A[0] == 0 {
		panic("filter: cannot normalize with empty or zero-leading A")
	}
	if f.A[0] == 1 {
		return f
	}
	g := 1 / f.A[0]
	nb := make([]float64, len(f.B))
	na := make([]float64, len(f.A))
	for i, v := range f.B {
		nb[i] = v * g
	}
	for i, v := range f.A {
		na[i] = v * g
	}
	return Filter{B: nb, A: na, Desc: f.Desc}
}

// Response evaluates the complex frequency response on n uniform bins
// F = k/n, k = 0..n-1.
func (f Filter) Response(n int) []complex128 {
	return fft.FrequencyResponse(f.B, f.A, n)
}

// ResponseAt evaluates H(e^{j 2 pi F}) at one normalized frequency.
func (f Filter) ResponseAt(F float64) complex128 {
	z := cmplx.Exp(complex(0, -2*math.Pi*F))
	num := horner(f.B, z)
	den := horner(f.A, z)
	return num / den
}

func horner(c []float64, z complex128) complex128 {
	var acc complex128
	for i := len(c) - 1; i >= 0; i-- {
		acc = acc*z + complex(c[i], 0)
	}
	return acc
}

// DCGain returns H(1) = sum(B)/sum(A).
func (f Filter) DCGain() float64 {
	var nb, na float64
	for _, v := range f.B {
		nb += v
	}
	for _, v := range f.A {
		na += v
	}
	return nb / na
}

// PowerGain returns sum h[n]^2, the white-noise power gain of the filter.
// FIR filters are summed exactly; IIR impulse responses are accumulated
// until the tail is negligible (or maxLen samples).
func (f Filter) PowerGain() float64 {
	if f.IsFIR() {
		var s float64
		for _, v := range f.B {
			s += v * v
		}
		return s
	}
	h := f.ImpulseResponse(1 << 16)
	var s float64
	for _, v := range h {
		s += v * v
	}
	return s
}

// ImpulseResponse simulates the first n samples of h[k].
func (f Filter) ImpulseResponse(n int) []float64 {
	st := NewState(f)
	out := make([]float64, n)
	for i := range out {
		x := 0.0
		if i == 0 {
			x = 1
		}
		out[i] = st.Step(x)
	}
	return out
}

// String renders a short description.
func (f Filter) String() string {
	kind := "IIR"
	if f.IsFIR() {
		kind = "FIR"
	}
	d := f.Desc
	if d == "" {
		d = "filter"
	}
	return fmt.Sprintf("%s %s order %d", d, kind, f.Order())
}

// State is a transposed direct-form-II runtime for a Filter. It processes
// samples one at a time with O(order) work and holds the delay line between
// calls.
type State struct {
	b, a []float64
	w    []float64 // delay line, len = order
}

// NewState builds a fresh runtime for f (normalized first if needed).
func NewState(f Filter) *State {
	nf := f.Normalize()
	order := nf.Order()
	b := make([]float64, order+1)
	a := make([]float64, order+1)
	copy(b, nf.B)
	copy(a, nf.A)
	a[0] = 1
	return &State{b: b, a: a, w: make([]float64, order)}
}

// Step processes one input sample and returns one output sample.
func (s *State) Step(x float64) float64 {
	if len(s.w) == 0 {
		return s.b[0] * x
	}
	y := s.b[0]*x + s.w[0]
	for i := 0; i < len(s.w)-1; i++ {
		s.w[i] = s.b[i+1]*x + s.w[i+1] - s.a[i+1]*y
	}
	last := len(s.w) - 1
	s.w[last] = s.b[last+1]*x - s.a[last+1]*y
	return y
}

// Process filters a whole slice, returning a new slice.
func (s *State) Process(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = s.Step(v)
	}
	return out
}
