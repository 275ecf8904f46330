package dsp

import (
	"fmt"
	"math"
)

// WindowType enumerates the supported tapering windows.
type WindowType int

const (
	// Rectangular is the boxcar window (no tapering).
	Rectangular WindowType = iota
	// Hann is the raised-cosine window.
	Hann
	// Hamming is the Hamming window (0.54/0.46 coefficients).
	Hamming
	// Blackman is the classic 3-term Blackman window.
	Blackman
	// Kaiser is the Kaiser-Bessel window; its beta parameter is supplied
	// separately via KaiserWindow.
	Kaiser
)

// String implements fmt.Stringer.
func (w WindowType) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	case Kaiser:
		return "kaiser"
	default:
		return fmt.Sprintf("WindowType(%d)", int(w))
	}
}

// Window returns the n-point symmetric window of the given type. Kaiser
// windows use beta = 8.6 (about 90 dB sidelobes); use KaiserWindow for a
// specific beta.
func Window(t WindowType, n int) []float64 {
	switch t {
	case Rectangular:
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		return w
	case Hann:
		return cosineWindow(n, []float64{0.5, -0.5})
	case Hamming:
		return cosineWindow(n, []float64{0.54, -0.46})
	case Blackman:
		return cosineWindow(n, []float64{0.42, -0.5, 0.08})
	case Kaiser:
		return KaiserWindow(n, 8.6)
	default:
		panic(fmt.Sprintf("dsp: unknown window %v", t))
	}
}

// cosineWindow builds sum_j c[j] cos(2 pi j i/(n-1)).
func cosineWindow(n int, c []float64) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		var v float64
		for j, cj := range c {
			v += cj * math.Cos(float64(j)*x)
		}
		w[i] = v
	}
	return w
}

// KaiserWindow returns the n-point Kaiser window with shape parameter beta.
func KaiserWindow(n int, beta float64) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	den := BesselI0(beta)
	half := float64(n-1) / 2
	for i := range w {
		x := (float64(i) - half) / half
		w[i] = BesselI0(beta*math.Sqrt(1-x*x)) / den
	}
	return w
}

// BesselI0 computes the zeroth-order modified Bessel function of the first
// kind by its power series, which converges rapidly for the argument range
// used by Kaiser windows.
func BesselI0(x float64) float64 {
	sum := 1.0
	term := 1.0
	half := x / 2
	for k := 1; k < 64; k++ {
		term *= (half / float64(k)) * (half / float64(k))
		sum += term
		if term < 1e-18*sum {
			break
		}
	}
	return sum
}
