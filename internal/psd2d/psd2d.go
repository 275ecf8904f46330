// Package psd2d provides the two-dimensional error-spectrum machinery for
// the paper's Fig. 7: the 2-D periodogram of a simulated error image, the
// separable analytical 2-D PSD of the DWT quantization noise, and the
// log-normalized centered rendering the paper shows (DC at image center,
// black = low error, white = high).
package psd2d

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/wavelet"
)

// Spectrum is an N x M matrix of per-bin power over the 2-D normalized
// frequency grid (F1, F2) in [0,1) x [0,1), row-major.
type Spectrum [][]float64

// NewSpectrum allocates an n x m zero spectrum.
func NewSpectrum(n, m int) Spectrum {
	s := make(Spectrum, n)
	for i := range s {
		s[i] = make([]float64, m)
	}
	return s
}

// Dims returns the grid size.
func (s Spectrum) Dims() (int, int) {
	if len(s) == 0 {
		return 0, 0
	}
	return len(s), len(s[0])
}

// Total returns the sum of all bins (the image-domain error power).
func (s Spectrum) Total() float64 {
	var t float64
	for _, row := range s {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Add accumulates o into s.
func (s Spectrum) Add(o Spectrum) {
	for i := range s {
		for j := range s[i] {
			s[i][j] += o[i][j]
		}
	}
}

// Periodogram2D estimates the 2-D PSD of an error image (mean removed),
// normalized so that Total() equals the image sample variance.
func Periodogram2D(img wavelet.Image) (Spectrum, error) {
	rows, cols := img.Dims()
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("psd2d: empty image")
	}
	var mean float64
	for _, row := range img {
		for _, v := range row {
			mean += v
		}
	}
	mean /= float64(rows * cols)
	buf := make([][]complex128, rows)
	for r := range buf {
		buf[r] = make([]complex128, cols)
		for c, v := range img[r] {
			buf[r][c] = complex(v-mean, 0)
		}
	}
	spec := fft.Forward2D(buf)
	out := NewSpectrum(rows, cols)
	inv := 1 / float64(rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			re, im := real(spec[r][c]), imag(spec[r][c])
			out[r][c] = (re*re + im*im) * inv * inv
		}
	}
	return out, nil
}

// AveragePeriodogram2D averages the periodograms of many error images —
// the Monte-Carlo side of Fig. 7.
func AveragePeriodogram2D(imgs []wavelet.Image) (Spectrum, error) {
	if len(imgs) == 0 {
		return nil, fmt.Errorf("psd2d: no images")
	}
	acc, err := Periodogram2D(imgs[0])
	if err != nil {
		return nil, err
	}
	for _, im := range imgs[1:] {
		p, err := Periodogram2D(im)
		if err != nil {
			return nil, err
		}
		r0, c0 := acc.Dims()
		r1, c1 := p.Dims()
		if r0 != r1 || c0 != c1 {
			return nil, fmt.Errorf("psd2d: image sizes differ (%dx%d vs %dx%d)", r0, c0, r1, c1)
		}
		acc.Add(p)
	}
	inv := 1 / float64(len(imgs))
	for i := range acc {
		for j := range acc[i] {
			acc[i][j] *= inv
		}
	}
	return acc, nil
}

// Centered returns the spectrum with DC moved to the center of the grid
// (fftshift), the layout of the paper's Fig. 7.
func (s Spectrum) Centered() Spectrum {
	n, m := s.Dims()
	out := NewSpectrum(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			out[(i+n/2)%n][(j+m/2)%m] = s[i][j]
		}
	}
	return out
}

// RenderLog maps the spectrum to a log-normalized grayscale image in
// [0, 1] (black = lowest error, white = highest), with floorDB limiting
// the dynamic range below the peak (e.g. 60 dB).
func (s Spectrum) RenderLog(floorDB float64) wavelet.Image {
	n, m := s.Dims()
	img := wavelet.NewImage(n, m)
	peak := 0.0
	for _, row := range s {
		for _, v := range row {
			if v > peak {
				peak = v
			}
		}
	}
	if peak <= 0 {
		return img
	}
	floor := peak * math.Pow(10, -floorDB/10)
	logFloor := math.Log10(floor)
	logPeak := math.Log10(peak)
	span := logPeak - logFloor
	for i, row := range s {
		for j, v := range row {
			if v < floor {
				img[i][j] = 0
				continue
			}
			img[i][j] = (math.Log10(v) - logFloor) / span
		}
	}
	return img
}

// Distance returns the relative L1 distance between two spectra, a scalar
// agreement measure for Fig. 7 (0 = identical shapes).
func (s Spectrum) Distance(o Spectrum) (float64, error) {
	n, m := s.Dims()
	on, om := o.Dims()
	if n != on || m != om {
		return 0, fmt.Errorf("psd2d: dimension mismatch %dx%d vs %dx%d", n, m, on, om)
	}
	var l1, ref float64
	for i := range s {
		for j := range s[i] {
			l1 += math.Abs(s[i][j] - o[i][j])
			ref += math.Abs(s[i][j])
		}
	}
	if ref == 0 {
		return 0, fmt.Errorf("psd2d: zero reference spectrum")
	}
	return l1 / ref, nil
}
