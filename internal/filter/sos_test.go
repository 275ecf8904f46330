package filter

import (
	"math"
	"math/cmplx"
	"testing"
)

// The frequency response and stability test of a cascade are the oracles
// DesignIIRSOS is checked against.

// Response evaluates the section at normalized frequency F.
func (s Biquad) Response(F float64) complex128 {
	z := cmplx.Exp(complex(0, -2*math.Pi*F))
	num := complex(s.B0, 0) + complex(s.B1, 0)*z + complex(s.B2, 0)*z*z
	den := 1 + complex(s.A1, 0)*z + complex(s.A2, 0)*z*z
	return num / den
}

// IsStable reports whether the section's poles are inside the unit circle
// (the stability triangle |a2| < 1, |a1| < 1 + a2).
func (s Biquad) IsStable() bool {
	return math.Abs(s.A2) < 1 && math.Abs(s.A1) < 1+s.A2
}

// Response evaluates the cascade at F.
func (c SOS) Response(F float64) complex128 {
	acc := complex(c.Gain, 0)
	for _, s := range c.Sections {
		acc *= s.Response(F)
	}
	return acc
}

// IsStable reports whether every section is stable.
func (c SOS) IsStable() bool {
	for _, s := range c.Sections {
		if !s.IsStable() {
			return false
		}
	}
	return true
}

func TestBiquadStabilityTriangle(t *testing.T) {
	stable := Biquad{B0: 1, A1: -1.2, A2: 0.5}
	if !stable.IsStable() {
		t.Fatal("section inside triangle reported unstable")
	}
	unstable := Biquad{B0: 1, A1: -2.1, A2: 1.2}
	if unstable.IsStable() {
		t.Fatal("section outside triangle reported stable")
	}
}

func TestSOSMatchesDirectFormResponse(t *testing.T) {
	for _, spec := range []IIRSpec{
		{Kind: Butterworth, Band: Lowpass, Order: 6, F1: 0.2},
		{Kind: Butterworth, Band: Highpass, Order: 5, F1: 0.15},
		{Kind: Butterworth, Band: Bandpass, Order: 4, F1: 0.1, F2: 0.2},
		{Kind: Chebyshev1, Band: Lowpass, Order: 5, F1: 0.25, RippleDB: 0.5},
		{Kind: Butterworth, Band: Bandstop, Order: 3, F1: 0.1, F2: 0.2},
	} {
		df, err := DesignIIR(spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		cas, err := DesignIIRSOS(spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if !cas.IsStable() {
			t.Fatalf("%+v: cascade unstable", spec)
		}
		if cas.Order() != df.Order() {
			t.Fatalf("%+v: order %d vs %d", spec, cas.Order(), df.Order())
		}
		for _, F := range []float64{0.01, 0.05, 0.12, 0.22, 0.35, 0.49} {
			a := cmplx.Abs(cas.Response(F))
			b := cmplx.Abs(df.ResponseAt(F))
			if math.Abs(a-b) > 1e-6*(1+b) {
				t.Fatalf("%+v at F=%g: sos %g vs direct %g", spec, F, a, b)
			}
		}
	}
}

func TestSOSNumericallyRobustHighOrder(t *testing.T) {
	// Order-10 bandpass prototype -> digital order 20: the direct form is
	// numerically fragile here (the reason the Table-I bank caps bandpass
	// orders); the cascade must remain stable and bounded.
	spec := IIRSpec{Kind: Butterworth, Band: Bandpass, Order: 10, F1: 0.0375, F2: 0.1375}
	cas, err := DesignIIRSOS(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cas.IsStable() {
		t.Fatal("high-order cascade unstable")
	}
	// Passband gain ~1 at the geometric center.
	center := geomCenterDigital(0.0375, 0.1375)
	if g := cmplx.Abs(cas.Response(center)); math.Abs(g-1) > 0.05 {
		t.Fatalf("center gain %g", g)
	}
	// Deep stopband.
	if g := cmplx.Abs(cas.Response(0.45)); g > 1e-6 {
		t.Fatalf("stopband gain %g", g)
	}
}

func TestSOSSectionOrdering(t *testing.T) {
	cas, err := DesignIIRSOS(IIRSpec{Kind: Butterworth, Band: Lowpass, Order: 8, F1: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cas.Sections); i++ {
		if sectionRadius(cas.Sections[i]) < sectionRadius(cas.Sections[i-1])-1e-12 {
			t.Fatal("sections not ordered by pole radius")
		}
	}
}

func TestDesignIIRSOSErrors(t *testing.T) {
	bad := []IIRSpec{
		{Kind: Butterworth, Band: Lowpass, Order: 0, F1: 0.2},
		{Kind: Butterworth, Band: Lowpass, Order: 4, F1: 0.7},
		{Kind: Butterworth, Band: Bandpass, Order: 4, F1: 0.3, F2: 0.2},
	}
	for _, s := range bad {
		if _, err := DesignIIRSOS(s); err == nil {
			t.Errorf("spec %+v should fail", s)
		}
	}
}
