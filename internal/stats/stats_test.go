package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if Mean(x) != 2.5 {
		t.Fatalf("mean %g", Mean(x))
	}
	if Variance(x) != 1.25 {
		t.Fatalf("variance %g", Variance(x))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty input should give 0")
	}
}

func TestMeanSquareDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 50)
		for i := range x {
			x[i] = rng.NormFloat64()*3 + 1
		}
		m := Mean(x)
		return math.Abs(MeanSquare(x)-(m*m+Variance(x))) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEd(t *testing.T) {
	if got := Ed(2, 1); got != 0.5 {
		t.Fatalf("Ed(2,1)=%g", got)
	}
	if got := Ed(1, 2); got != -1 {
		t.Fatalf("Ed(1,2)=%g", got)
	}
	if !math.IsNaN(Ed(0, 1)) {
		t.Fatal("Ed with zero sim power should be NaN")
	}
	if Ed(5, 5) != 0 {
		t.Fatal("perfect estimate should give Ed=0")
	}
}

func TestEdSE(t *testing.T) {
	// Ed = 1 - est/sim: a 1% error on sim moves Ed by est/sim percent.
	if got := EdSE(2, 0.02, 1); math.Abs(got-0.005) > 1e-15 {
		t.Fatalf("EdSE(2, 0.02, 1) = %g, want 0.005", got)
	}
	if !math.IsNaN(EdSE(2, math.NaN(), 1)) {
		t.Fatal("NaN standard error should propagate")
	}
}

func TestSubOneBitBand(t *testing.T) {
	// The paper's band: Ed in (-75%, 300%) in their sign convention maps to
	// est/sim in (1/4, 4); with Ed = (sim-est)/sim that is Ed in (-3, 0.75).
	cases := map[float64]bool{
		0:     true,
		0.5:   true,
		-2.9:  true,
		0.74:  true,
		0.76:  false,
		-3.1:  false,
		0.001: true,
	}
	for ed, want := range cases {
		if got := SubOneBit(ed); got != want {
			t.Errorf("SubOneBit(%g) = %v, want %v", ed, got, want)
		}
	}
}

func TestEquivalentBits(t *testing.T) {
	// Ed = 0 -> exact -> 0 bits.
	if EquivalentBits(0) != 0 {
		t.Fatal("exact estimate should be 0 bits")
	}
	// est = 4*sim -> Ed = -3 -> exactly 1 bit.
	if got := EquivalentBits(-3); math.Abs(got-1) > 1e-12 {
		t.Fatalf("EquivalentBits(-3) = %g, want 1", got)
	}
	// est = sim/4 -> Ed = 0.75 -> 1 bit.
	if got := EquivalentBits(0.75); math.Abs(got-1) > 1e-12 {
		t.Fatalf("EquivalentBits(0.75) = %g, want 1", got)
	}
	if !math.IsInf(EquivalentBits(1.5), 1) {
		t.Fatal("Ed >= 1 (zero/negative est) should be +Inf bits")
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 10000)
	for i := range x {
		x[i] = rng.NormFloat64()*2 + 5
	}
	var r Running
	r.AddSlice(x)
	if math.Abs(r.Mean()-Mean(x)) > 1e-10 {
		t.Fatalf("running mean %g vs %g", r.Mean(), Mean(x))
	}
	if math.Abs(r.Variance()-Variance(x)) > 1e-9 {
		t.Fatalf("running variance %g vs %g", r.Variance(), Variance(x))
	}
	if math.Abs(r.MeanSquare()-MeanSquare(x)) > 1e-9 {
		t.Fatalf("running mean square %g vs %g", r.MeanSquare(), MeanSquare(x))
	}
	if r.N() != 10000 {
		t.Fatalf("N = %d", r.N())
	}
}

func TestRunningMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := make([]float64, 5000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var whole, a, b Running
	whole.AddSlice(x)
	a.AddSlice(x[:1234])
	b.AddSlice(x[1234:])
	a.Merge(b)
	if math.Abs(a.Mean()-whole.Mean()) > 1e-10 || math.Abs(a.Variance()-whole.Variance()) > 1e-9 {
		t.Fatalf("merge mismatch: %g/%g vs %g/%g", a.Mean(), a.Variance(), whole.Mean(), whole.Variance())
	}
	var empty Running
	empty.Merge(a)
	if empty.N() != a.N() || empty.Mean() != a.Mean() {
		t.Fatal("merge into empty should copy")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{-0.1, 0.2, math.NaN(), 0.05})
	if s.N != 3 {
		t.Fatalf("N = %d, want 3 (NaN excluded)", s.N)
	}
	if s.Min != -0.1 || s.Max != 0.2 {
		t.Fatalf("min/max %g/%g", s.Min, s.Max)
	}
	wantMeanAbs := (0.1 + 0.2 + 0.05) / 3
	if math.Abs(s.MeanAbs-wantMeanAbs) > 1e-12 {
		t.Fatalf("meanAbs %g want %g", s.MeanAbs, wantMeanAbs)
	}
	if s.MaxAbs != 0.2 {
		t.Fatalf("maxAbs %g", s.MaxAbs)
	}
	if s.Median != 0.05 {
		t.Fatalf("median %g", s.Median)
	}
	if got := s.Quantile(0); got != -0.1 {
		t.Fatalf("q0 %g", got)
	}
	if got := s.Quantile(1); got != 0.2 {
		t.Fatalf("q1 %g", got)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatal("empty summary should have N=0")
	}
	s = Summarize([]float64{math.NaN()})
	if s.N != 0 {
		t.Fatal("all-NaN summary should have N=0")
	}
}

func TestDBAndSQNR(t *testing.T) {
	if DB(100) != 20 {
		t.Fatalf("DB(100) = %g", DB(100))
	}
	if !math.IsInf(DB(0), -1) {
		t.Fatal("DB(0) should be -Inf")
	}
	if got := SQNR(1, 0.001); math.Abs(got-30) > 1e-9 {
		t.Fatalf("SQNR = %g", got)
	}
	if !math.IsInf(SQNR(1, 0), 1) {
		t.Fatal("SQNR with zero noise should be +Inf")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := Summarize([]float64{0, 1, 2, 3})
	if got := s.Quantile(0.5); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("median of 0..3 = %g, want 1.5", got)
	}
	if got := s.Quantile(0.25); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("q25 = %g, want 0.75", got)
	}
}
