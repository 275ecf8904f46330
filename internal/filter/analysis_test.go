package filter

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dsp"
)

func TestMagnitudeDB(t *testing.T) {
	f := NewFIR([]float64{0.5}, "attenuator")
	if got := f.MagnitudeDB(0.1); math.Abs(got-(-6.0206)) > 1e-3 {
		t.Fatalf("0.5 gain = %g dB, want -6.02", got)
	}
	null := NewFIR([]float64{1, -1}, "differencer")
	if !math.IsInf(null.MagnitudeDB(0), -1) {
		t.Fatal("DC null should be -Inf dB")
	}
}

func TestGroupDelayLinearPhaseFIR(t *testing.T) {
	f, err := DesignFIR(FIRSpec{Band: Lowpass, Taps: 41, F1: 0.2, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	want := 20.0 // (41-1)/2
	for _, F := range []float64{0.02, 0.1, 0.15} {
		if gd := f.GroupDelay(F); math.Abs(gd-want) > 0.05 {
			t.Fatalf("group delay %g at F=%g, want %g", gd, F, want)
		}
	}
}

func TestGroupDelayPureDelay(t *testing.T) {
	// z^-5 has constant group delay 5.
	f := NewFIR([]float64{0, 0, 0, 0, 0, 1}, "z5")
	for _, F := range []float64{0.05, 0.2, 0.4} {
		if gd := f.GroupDelay(F); math.Abs(gd-5) > 1e-3 {
			t.Fatalf("delay group delay %g at F=%g", gd, F)
		}
	}
}

func TestWriteResponse(t *testing.T) {
	f := NewFIR([]float64{0.5, 0.5}, "avg")
	var sb strings.Builder
	f.WriteResponse(&sb, 16)
	out := sb.String()
	if !strings.Contains(out, "mag(dB)") {
		t.Fatal("missing header")
	}
	lines := strings.Count(out, "\n")
	if lines != 2+9 { // 2 header lines + n/2+1 rows
		t.Fatalf("line count %d", lines)
	}
}
