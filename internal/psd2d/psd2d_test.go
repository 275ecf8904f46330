package psd2d

import (
	"math"
	"testing"

	"repro/internal/imagegen"
	"repro/internal/stats"
	"repro/internal/wavelet"
)

func TestPeriodogram2DVariance(t *testing.T) {
	img, err := imagegen.Generate(32, 32, 1, imagegen.Options{Kind: imagegen.SpectralField})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Periodogram2D(img)
	if err != nil {
		t.Fatal(err)
	}
	// Total power equals the image sample variance.
	var mean float64
	for _, row := range img {
		for _, v := range row {
			mean += v
		}
	}
	mean /= float64(32 * 32)
	var variance float64
	for _, row := range img {
		for _, v := range row {
			variance += (v - mean) * (v - mean)
		}
	}
	variance /= float64(32 * 32)
	if math.Abs(p.Total()-variance) > 1e-9*variance {
		t.Fatalf("total %g vs variance %g", p.Total(), variance)
	}
}

func TestCenteredInverts(t *testing.T) {
	s := NewSpectrum(8, 8)
	s[0][0] = 1 // DC
	c := s.Centered()
	if c[4][4] != 1 {
		t.Fatal("DC should move to center")
	}
	// Applying Centered twice returns to the original layout for even
	// sizes.
	cc := c.Centered()
	if cc[0][0] != 1 {
		t.Fatal("double shift should restore")
	}
}

func TestRenderLogRange(t *testing.T) {
	s := NewSpectrum(8, 8)
	for i := range s {
		for j := range s[i] {
			s[i][j] = float64(1+i*8+j) * 1e-9
		}
	}
	img := s.RenderLog(60)
	for _, row := range img {
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("render value %g outside [0,1]", v)
			}
		}
	}
	// Peak maps to 1.
	if img[7][7] != 1 {
		t.Fatalf("peak render %g", img[7][7])
	}
}

func TestDistanceErrors(t *testing.T) {
	a := NewSpectrum(4, 4)
	b := NewSpectrum(8, 8)
	if _, err := a.Distance(b); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	if _, err := a.Distance(a); err == nil {
		t.Fatal("zero reference should fail")
	}
}

func TestDWTModelTotalMatchesSimulation(t *testing.T) {
	// The Fig. 7 pairing: analytical 2-D spectrum total vs measured 2-D
	// error power on a synthetic corpus.
	bank := wavelet.CDF97()
	const (
		levels = 2
		frac   = 12
		n      = 64
	)
	model := DWTModel{Bank: bank, Levels: levels, Frac: frac, N: n, QuantizeInput: true}
	est, err := model.ErrorSpectrum()
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := imagegen.NoiseCorpus(24, n, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	errs, err := SimulateErrorImages(bank, imgs, levels, frac)
	if err != nil {
		t.Fatal(err)
	}
	var simPower stats.Running
	for _, e := range errs {
		for _, row := range e {
			simPower.AddSlice(row)
		}
	}
	ed := stats.Ed(simPower.MeanSquare(), est.Total())
	if math.Abs(ed) > 0.30 {
		t.Fatalf("2-D Ed %.1f%% outside +-30%%", 100*ed)
	}
}

func TestDWTModelSpectrumShapeMatchesSimulation(t *testing.T) {
	bank := wavelet.CDF97()
	const (
		levels = 2
		frac   = 10
		n      = 32
	)
	model := DWTModel{Bank: bank, Levels: levels, Frac: frac, N: n, QuantizeInput: true}
	est, err := model.ErrorSpectrum()
	if err != nil {
		t.Fatal(err)
	}
	// PQN-friendly inputs: periodic/flat images put signal-correlated
	// lines in the simulated error spectrum (see imagegen.NoiseCorpus).
	imgs, err := imagegen.NoiseCorpus(40, n, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	errsImgs, err := SimulateErrorImages(bank, imgs, levels, frac)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := AveragePeriodogram2D(errsImgs)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize both to unit total and compare shapes.
	normEst := scaleTo(est, 1)
	normSim := scaleTo(sim, 1)
	d, err := normEst.Distance(normSim)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.25 {
		t.Fatalf("2-D spectrum shape distance %g too large", d)
	}
}

func scaleTo(s Spectrum, total float64) Spectrum {
	out := NewSpectrum(len(s), len(s[0]))
	t := s.Total()
	if t == 0 {
		return out
	}
	g := total / t
	for i := range s {
		for j := range s[i] {
			out[i][j] = s[i][j] * g
		}
	}
	return out
}

func TestDWTModelErrors(t *testing.T) {
	bank := wavelet.CDF97()
	bad := []DWTModel{
		{Bank: bank, Levels: 0, Frac: 12, N: 32},
		{Bank: bank, Levels: 2, Frac: 0, N: 32},
		{Bank: bank, Levels: 2, Frac: 12, N: 3},
		{Bank: bank, Levels: 2, Frac: 12, N: 7},
	}
	for _, m := range bad {
		if _, err := m.ErrorSpectrum(); err == nil {
			t.Errorf("model %+v should fail", m)
		}
	}
}

func TestSimulateErrorImagesErrors(t *testing.T) {
	bank := wavelet.CDF97()
	if _, err := SimulateErrorImages(bank, nil, 2, 12); err == nil {
		t.Fatal("empty corpus should fail")
	}
}

func TestResampleLineConservation(t *testing.T) {
	bins := make([]float64, 32)
	for i := range bins {
		bins[i] = 1.0 / 32
	}
	down := resampleLine(bins, 2, true)
	var s float64
	for _, v := range down {
		s += v
	}
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("down total %g", s)
	}
	up := resampleLine(bins, 2, false)
	s = 0
	for _, v := range up {
		s += v
	}
	if math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("up total %g, want 0.5", s)
	}
}
