package qnoise

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixed"
	"repro/internal/stats"
)

func TestContinuousMoments(t *testing.T) {
	q := math.Ldexp(1, -8)
	tr := Continuous(fixed.Truncate, 8)
	if tr.Mean != -q/2 {
		t.Fatalf("truncate mean %g, want %g", tr.Mean, -q/2)
	}
	if math.Abs(tr.Variance-q*q/12) > 1e-20 {
		t.Fatalf("truncate variance %g", tr.Variance)
	}
	rn := Continuous(fixed.RoundNearest, 8)
	if rn.Mean != 0 || math.Abs(rn.Variance-q*q/12) > 1e-20 {
		t.Fatalf("round moments %+v", rn)
	}
	if got := Continuous(fixed.RoundConvergent, 8); got != rn {
		t.Fatal("convergent should match rounding for continuous input")
	}
}

func TestDiscreteLimits(t *testing.T) {
	// k -> large recovers the continuous model.
	cont := Continuous(fixed.Truncate, 10)
	disc := Discrete(fixed.Truncate, 60, 10)
	if math.Abs(disc.Mean-cont.Mean) > 1e-18 || math.Abs(disc.Variance-cont.Variance) > 1e-22 {
		t.Fatalf("large-k discrete %+v vs continuous %+v", disc, cont)
	}
	// k = 0: no noise.
	if m := Discrete(fixed.Truncate, 10, 10); m.Mean != 0 || m.Variance != 0 {
		t.Fatalf("k=0 moments %+v", m)
	}
	if m := Discrete(fixed.RoundNearest, 8, 10); m != (Moments{}) {
		t.Fatalf("negative k moments %+v", m)
	}
}

func TestDiscreteK1Truncation(t *testing.T) {
	// Dropping exactly 1 bit by truncation: error is 0 or -q/2 with equal
	// probability -> mean -q/4, variance q^2/16.
	q := math.Ldexp(1, -4)
	m := Discrete(fixed.Truncate, 5, 4)
	if math.Abs(m.Mean+q/4) > 1e-18 {
		t.Fatalf("k=1 mean %g, want %g", m.Mean, -q/4)
	}
	if math.Abs(m.Variance-q*q/16) > 1e-18 {
		t.Fatalf("k=1 variance %g, want %g", m.Variance, q*q/16)
	}
}

// Empirical check: quantize a dense uniform signal and compare measured
// moments of b = Q(x)-x with the model.
func TestContinuousMatchesEmpirical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 400000
	for _, mode := range []fixed.RoundMode{fixed.Truncate, fixed.RoundNearest} {
		const d = 6
		qz := fixed.NewQuantizer(d, mode)
		var r stats.Running
		for i := 0; i < n; i++ {
			x := rng.Float64()*2 - 1
			r.Add(qz.Apply(x) - x)
		}
		m := Continuous(mode, d)
		q := math.Ldexp(1, -d)
		if math.Abs(r.Mean()-m.Mean) > 0.01*q {
			t.Errorf("%v: empirical mean %g vs model %g", mode, r.Mean(), m.Mean)
		}
		if math.Abs(r.Variance()-m.Variance) > 0.02*m.Variance {
			t.Errorf("%v: empirical variance %g vs model %g", mode, r.Variance(), m.Variance)
		}
	}
}

func TestDiscreteMatchesEmpirical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 400000
	const dIn, dOut = 9, 6
	for _, mode := range []fixed.RoundMode{fixed.Truncate, fixed.RoundNearest} {
		qin := fixed.NewQuantizer(dIn, fixed.RoundNearest)
		qout := fixed.NewQuantizer(dOut, mode)
		var r stats.Running
		for i := 0; i < n; i++ {
			x := qin.Apply(rng.Float64()*2 - 1)
			r.Add(qout.Apply(x) - x)
		}
		m := Discrete(mode, dIn, dOut)
		q := math.Ldexp(1, -dOut)
		if math.Abs(r.Mean()-m.Mean) > 0.01*q {
			t.Errorf("%v: empirical mean %g vs model %g", mode, r.Mean(), m.Mean)
		}
		if math.Abs(r.Variance()-m.Variance) > 0.02*m.Variance {
			t.Errorf("%v: empirical variance %g vs model %g", mode, r.Variance(), m.Variance)
		}
	}
}

func TestSQNRUniformSlope(t *testing.T) {
	// SQNR of a full-scale uniform signal in [-1, 1) (power 1/3) against
	// the rounding-noise power at d fractional bits.
	sqnr := func(d int) float64 {
		m := Continuous(fixed.RoundNearest, d)
		return stats.SQNR(1.0/3.0, m.Mean*m.Mean+m.Variance)
	}
	// Each extra bit should add ~6.02 dB.
	d1 := sqnr(8)
	d2 := sqnr(9)
	if math.Abs((d2-d1)-6.0205999) > 1e-3 {
		t.Fatalf("SQNR slope %g dB/bit", d2-d1)
	}
	// Absolute value for d=8: signal 1/3, noise 2^-16/12 -> 10log10(2^18/3 * ... )
	want := 10 * math.Log10((1.0/3.0)/(math.Ldexp(1, -16)/12))
	if math.Abs(d1-want) > 1e-9 {
		t.Fatalf("SQNR(8) = %g, want %g", d1, want)
	}
}

func TestSourceMoments(t *testing.T) {
	s := Source{Name: "op1", Mode: fixed.Truncate, Frac: 12}
	if s.Moments() != Continuous(fixed.Truncate, 12) {
		t.Fatal("continuous source moments")
	}
	s2 := Source{Name: "op2", Mode: fixed.Truncate, Frac: 10, FracIn: 14}
	if s2.Moments() != Discrete(fixed.Truncate, 14, 10) {
		t.Fatal("discrete source moments")
	}
}

func TestNoiseWhiteness(t *testing.T) {
	// PQN property 2: the noise sequence should be (nearly) white for a
	// smooth input. Check lag-1..4 autocorrelation of the error signal.
	rng := rand.New(rand.NewSource(3))
	q := fixed.NewQuantizer(8, fixed.RoundNearest)
	n := 100000
	e := make([]float64, n)
	x := 0.0
	for i := range e {
		// A smooth random-walk signal exercising many quantization cells.
		x += rng.NormFloat64() * 0.3
		e[i] = q.Apply(x) - x
	}
	var mean float64
	for _, v := range e {
		mean += v
	}
	mean /= float64(n)
	var r0 float64
	for _, v := range e {
		r0 += (v - mean) * (v - mean)
	}
	for lag := 1; lag <= 4; lag++ {
		var r float64
		for i := 0; i+lag < n; i++ {
			r += (e[i] - mean) * (e[i+lag] - mean)
		}
		if math.Abs(r/r0) > 0.02 {
			t.Errorf("lag-%d correlation %g, want ~0 (white)", lag, r/r0)
		}
	}
}
