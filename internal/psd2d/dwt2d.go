package psd2d

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/fixed"
	"repro/internal/wavelet"
)

// DWTModel is the analytical 2-D error-spectrum model of the quantized
// L-level separable 9/7 DWT codec (the estimation side of the paper's
// Fig. 7). Noise is propagated in the power domain on an N x N grid using
// the separable axis rules: row/column filtering multiplies by |H(F)|^2
// along one axis, decimation aliases and expansion images along one axis —
// the 2-D generalization of Section III-B. All quantization sources are
// white with the PQN variance at Frac bits; sources injected at deeper
// levels live at lower rates and are diluted by the expanders exactly as
// in the 1-D method.
//
// The stage order and injection points mirror wavelet.Analyze2DQ /
// Synthesize2DQ sample-for-sample: subband quantizers after each
// directional analysis pass, branch quantizers after each synthesis filter.
// (The post-adder quantizers inject nothing: sums of grid values are
// already on the grid.)
type DWTModel struct {
	Bank   wavelet.Bank
	Levels int
	Frac   int
	// N is the spectral grid size per axis (N x N bins).
	N int
	// QuantizeInput adds the input-image quantization source.
	QuantizeInput bool
}

// ErrorSpectrum returns the predicted 2-D output error PSD (power per bin,
// Total() = predicted error power per pixel).
func (m DWTModel) ErrorSpectrum() (Spectrum, error) {
	if m.Levels < 1 {
		return nil, fmt.Errorf("psd2d: levels %d < 1", m.Levels)
	}
	if m.N < 4 || m.N%2 != 0 {
		return nil, fmt.Errorf("psd2d: grid %d must be even and >= 4", m.N)
	}
	if m.Frac < 1 {
		return nil, fmt.Errorf("psd2d: fractional bits %d < 1", m.Frac)
	}
	// Per-source white variance (rounding PQN).
	q := math.Ldexp(1, -m.Frac)
	v := q * q / 12

	h0 := magnitude2(m.Bank.H0, m.N)
	h1 := magnitude2(m.Bank.H1, m.N)
	g0 := magnitude2(m.Bank.G0, m.N)
	g1 := magnitude2(m.Bank.G1, m.N)

	w := NewSpectrum(m.N, m.N)
	if m.QuantizeInput {
		addWhite(w, v)
	}
	out := m.processLevel(w, v, h0, h1, g0, g1, 1)
	return out, nil
}

// processLevel propagates the pooled noise spectrum through one level of
// the 2-D codec (encoder row pass, encoder column pass, recursion on LL,
// decoder column pass, decoder row pass), injecting that level's sources.
func (m DWTModel) processLevel(in Spectrum, v float64, h0, h1, g0, g1 []float64, level int) Spectrum {
	// --- Encoder: rows (filter + decimate along X), subbands quantized.
	wa := applyAxis(in, axisX, h0)
	wd := applyAxis(in, axisX, h1)
	wa = resampleAxis(wa, axisX, 2, true)
	wd = resampleAxis(wd, axisX, 2, true)
	addWhite(wa, v) // row approximation subband quantizer
	addWhite(wd, v) // row detail subband quantizer

	// --- Encoder: columns on both row branches.
	wll := resampleAxis(applyAxis(wa, axisY, h0), axisY, 2, true)
	wlh := resampleAxis(applyAxis(wa, axisY, h1), axisY, 2, true)
	whl := resampleAxis(applyAxis(wd, axisY, h0), axisY, 2, true)
	whh := resampleAxis(applyAxis(wd, axisY, h1), axisY, 2, true)
	addWhite(wll, v)
	addWhite(wlh, v)
	addWhite(whl, v)
	addWhite(whh, v)

	// --- Recurse on LL.
	if level < m.Levels {
		wll = m.processLevel(wll, v, h0, h1, g0, g1, level+1)
	}

	// --- Decoder: columns (expand + filter along Y), branch quantizers.
	ya := applyAxis(resampleAxis(wll, axisY, 2, false), axisY, g0)
	addWhite(ya, v)
	yd := applyAxis(resampleAxis(wlh, axisY, 2, false), axisY, g1)
	addWhite(yd, v)
	wa2 := NewSpectrum(m.N, m.N)
	wa2.Add(ya)
	wa2.Add(yd)

	yh := applyAxis(resampleAxis(whl, axisY, 2, false), axisY, g0)
	addWhite(yh, v)
	yhh := applyAxis(resampleAxis(whh, axisY, 2, false), axisY, g1)
	addWhite(yhh, v)
	wd2 := NewSpectrum(m.N, m.N)
	wd2.Add(yh)
	wd2.Add(yhh)

	// --- Decoder: rows.
	ra := applyAxis(resampleAxis(wa2, axisX, 2, false), axisX, g0)
	addWhite(ra, v)
	rd := applyAxis(resampleAxis(wd2, axisX, 2, false), axisX, g1)
	addWhite(rd, v)
	out := NewSpectrum(m.N, m.N)
	out.Add(ra)
	out.Add(rd)
	return out
}

type axisKind int

const (
	// axisX is the horizontal (column-index / F1) axis — row filtering.
	axisX axisKind = iota
	// axisY is the vertical (row-index / F2) axis — column filtering.
	axisY
)

// magnitude2 samples |H(F)|^2 of an FIR on n bins.
func magnitude2(taps []float64, n int) []float64 {
	return fft.Magnitude2(fft.FrequencyResponse(taps, nil, n))
}

// addWhite adds a white source of total variance v to the spectrum.
func addWhite(s Spectrum, v float64) {
	n, mm := s.Dims()
	per := v / float64(n*mm)
	for i := range s {
		for j := range s[i] {
			s[i][j] += per
		}
	}
}

// applyAxis multiplies by |H|^2 along one axis.
func applyAxis(s Spectrum, ax axisKind, mag2 []float64) Spectrum {
	n, m := s.Dims()
	out := NewSpectrum(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			switch ax {
			case axisX:
				out[i][j] = s[i][j] * mag2[j]
			default:
				out[i][j] = s[i][j] * mag2[i]
			}
		}
	}
	return out
}

// resampleAxis applies the 1-D decimation (down=true, aliasing) or
// expansion (down=false, imaging with 1/L^2 bin integration) rule along
// one axis, reusing the validated 1-D rules from package psd via local
// reimplementation on rows/columns.
func resampleAxis(s Spectrum, ax axisKind, factor int, down bool) Spectrum {
	n, m := s.Dims()
	out := NewSpectrum(n, m)
	if ax == axisX {
		for i := 0; i < n; i++ {
			line := resampleLine(s[i], factor, down)
			copy(out[i], line)
		}
		return out
	}
	col := make([]float64, n)
	for j := 0; j < m; j++ {
		for i := 0; i < n; i++ {
			col[i] = s[i][j]
		}
		line := resampleLine(col, factor, down)
		for i := 0; i < n; i++ {
			out[i][j] = line[i]
		}
	}
	return out
}

// resampleLine is the 1-D per-bin power rule (see psd.PSD.DownsampleInto
// and UpsampleInto for the derivations).
func resampleLine(bins []float64, factor int, down bool) []float64 {
	n := len(bins)
	out := make([]float64, n)
	if down {
		fn := float64(n)
		dens := func(pos float64) float64 {
			pos = math.Mod(pos, fn)
			if pos < 0 {
				pos += fn
			}
			i := int(math.Floor(pos))
			frac := pos - float64(i)
			d0 := bins[i%n] * fn
			d1 := bins[(i+1)%n] * fn
			return d0*(1-frac) + d1*frac
		}
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k < factor; k++ {
				sum += dens((float64(j) + float64(k)*fn) / float64(factor))
			}
			out[j] = sum / (float64(factor) * fn)
		}
		return out
	}
	inv := 1 / float64(factor*factor)
	for j := 0; j < n; j++ {
		var sum float64
		for k := 0; k < factor; k++ {
			sum += bins[(factor*j+k)%n]
		}
		out[j] = sum * inv
	}
	return out
}

// SimulateErrorImages runs the quantized 2-D codec (round-to-nearest at
// frac bits, matching DWTModel) on a set of images and returns the
// per-image error images (fixed-point minus reference), the Monte-Carlo
// side of Fig. 7.
func SimulateErrorImages(bank wavelet.Bank, imgs []wavelet.Image, levels, frac int) ([]wavelet.Image, error) {
	if len(imgs) == 0 {
		return nil, fmt.Errorf("psd2d: no images")
	}
	qz := fixed.NewQuantizer(frac, fixed.RoundNearest)
	q := wavelet.Quantizers{Analysis: qz, Synthesis: qz}
	inQ := qz
	var out []wavelet.Image
	for _, img := range imgs {
		ref, err := roundtrip(bank, img, levels, wavelet.Quantizers{})
		if err != nil {
			return nil, err
		}
		qin := img.Clone()
		for r := range qin {
			for c := range qin[r] {
				qin[r][c] = inQ.Apply(qin[r][c])
			}
		}
		fx, err := roundtrip(bank, qin, levels, q)
		if err != nil {
			return nil, err
		}
		rows, cols := img.Dims()
		e := wavelet.NewImage(rows, cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				e[r][c] = fx[r][c] - ref[r][c]
			}
		}
		out = append(out, e)
	}
	return out, nil
}

func roundtrip(bank wavelet.Bank, img wavelet.Image, levels int, q wavelet.Quantizers) (wavelet.Image, error) {
	co, err := bank.Analyze2DQ(img, levels, q)
	if err != nil {
		return nil, err
	}
	return bank.Synthesize2DQ(co, levels, q)
}
