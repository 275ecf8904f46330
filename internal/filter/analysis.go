package filter

import (
	"fmt"
	"io"
	"math"
	"math/cmplx"
)

// MagnitudeDB returns 20 log10 |H(F)| at one frequency; -Inf for exact
// nulls.
func (f Filter) MagnitudeDB(F float64) float64 {
	m := cmplx.Abs(f.ResponseAt(F))
	if m <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(m)
}

// Phase returns the response phase in radians at F, in (-pi, pi].
func (f Filter) Phase(F float64) float64 {
	return cmplx.Phase(f.ResponseAt(F))
}

// GroupDelay returns -d(phase)/d(omega) in samples at F, evaluated by
// central differencing with unwrapping. Linear-phase FIR filters return
// (taps-1)/2 across the passband.
func (f Filter) GroupDelay(F float64) float64 {
	const h = 1e-5
	p1 := f.Phase(F - h)
	p2 := f.Phase(F + h)
	d := p2 - p1
	// Unwrap the single step.
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d < -math.Pi {
		d += 2 * math.Pi
	}
	return -d / (2 * math.Pi * 2 * h)
}

// WriteResponse prints a frequency-response table (magnitude dB, phase,
// group delay) on n/2+1 grid points — the guts of the filtergen CLI and a
// quick debugging aid.
func (f Filter) WriteResponse(w io.Writer, n int) {
	fmt.Fprintf(w, "# %s\n", f.String())
	fmt.Fprintf(w, "#%9s %12s %12s %12s\n", "F", "mag(dB)", "phase(rad)", "grpdelay")
	for k := 0; k <= n/2; k++ {
		F := float64(k) / float64(n)
		fmt.Fprintf(w, "%10.5f %12.4f %12.4f %12.4f\n",
			F, f.MagnitudeDB(F), f.Phase(F), f.GroupDelay(F))
	}
}
