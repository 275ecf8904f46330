// Package imagegen generates the synthetic grayscale image corpus that
// stands in for the USC-SIPI / RPI-CIPR / Brodatz databases of the paper's
// DWT experiments, which are not distributed with this repository:
// 1/f^alpha Gaussian random fields matching the aggregate spectral
// statistics of natural images, plus deterministic structures (gratings,
// checkerboards, gradients) and mixtures. It also writes binary PGM for
// the Fig. 7 outputs.
package imagegen

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/fft"
	"repro/internal/wavelet"
)

// Kind selects a generator.
type Kind int

const (
	// SpectralField is a Gaussian random field with isotropic 1/f^alpha
	// amplitude spectrum (alpha ~ 1 matches natural images).
	SpectralField Kind = iota
	// Grating is a sinusoidal plaid (two crossed gratings).
	Grating
	// Checkerboard alternates blocks of +-amplitude.
	Checkerboard
	// Gradient ramps smoothly across both axes.
	Gradient
	// Mixture superposes a spectral field with a grating and a gradient,
	// the closest stand-in for textured photographs.
	Mixture
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case SpectralField:
		return "spectral-field"
	case Grating:
		return "grating"
	case Checkerboard:
		return "checkerboard"
	case Gradient:
		return "gradient"
	case Mixture:
		return "mixture"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Options parameterizes generation.
type Options struct {
	Kind Kind
	// Alpha is the spectral slope for SpectralField/Mixture (default 1.0).
	Alpha float64
	// Period is the grating/checkerboard period in pixels (default 8).
	Period int
}

// Generate produces a rows x cols image with samples in [-1, 1), seeded
// deterministically.
func Generate(rows, cols int, seed int64, opt Options) (wavelet.Image, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("imagegen: size %dx%d too small", rows, cols)
	}
	rng := rand.New(rand.NewSource(seed))
	alpha := opt.Alpha
	if alpha == 0 {
		alpha = 1.0
	}
	period := opt.Period
	if period == 0 {
		period = 8
	}
	var img wavelet.Image
	switch opt.Kind {
	case SpectralField:
		img = spectralField(rows, cols, alpha, rng)
	case Grating:
		img = grating(rows, cols, period, rng)
	case Checkerboard:
		img = checkerboard(rows, cols, period)
	case Gradient:
		img = gradient(rows, cols)
	case Mixture:
		a := spectralField(rows, cols, alpha, rng)
		b := grating(rows, cols, period, rng)
		c := gradient(rows, cols)
		img = wavelet.NewImage(rows, cols)
		for r := 0; r < rows; r++ {
			for cc := 0; cc < cols; cc++ {
				img[r][cc] = 0.6*a[r][cc] + 0.25*b[r][cc] + 0.15*c[r][cc]
			}
		}
	default:
		return nil, fmt.Errorf("imagegen: unknown kind %v", opt.Kind)
	}
	normalize(img)
	return img, nil
}

// NoiseCorpus generates n deterministic 1/f^alpha random fields with
// varying slopes. It excludes the purely periodic and piecewise-constant
// kinds, whose quantization error is signal-correlated (violating the PQN
// model) and shows up as spectral lines — the appropriate stand-in when the
// experiment's point is the noise spectrum, as in Fig. 7.
func NoiseCorpus(n, rows, cols int, seed int64) ([]wavelet.Image, error) {
	alphas := []float64{0.8, 1.0, 1.2, 1.5}
	out := make([]wavelet.Image, 0, n)
	for i := 0; i < n; i++ {
		img, err := Generate(rows, cols, seed+int64(i)*6397, Options{
			Kind:  SpectralField,
			Alpha: alphas[i%len(alphas)],
		})
		if err != nil {
			return nil, err
		}
		out = append(out, img)
	}
	return out, nil
}

// spectralField synthesizes a field with amplitude spectrum 1/f^alpha by
// shaping white complex spectra and inverse transforming.
func spectralField(rows, cols int, alpha float64, rng *rand.Rand) wavelet.Image {
	spec := make([][]complex128, rows)
	for r := range spec {
		spec[r] = make([]complex128, cols)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			// Centered spatial frequency magnitude.
			fr := float64(r) / float64(rows)
			if fr > 0.5 {
				fr -= 1
			}
			fc := float64(c) / float64(cols)
			if fc > 0.5 {
				fc -= 1
			}
			f := math.Hypot(fr, fc)
			if f == 0 {
				continue // zero-mean field
			}
			mag := math.Pow(f, -alpha)
			ph := rng.Float64() * 2 * math.Pi
			spec[r][c] = complex(mag*math.Cos(ph), mag*math.Sin(ph))
		}
	}
	time := fft.Inverse2D(spec)
	img := wavelet.NewImage(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			img[r][c] = real(time[r][c])
		}
	}
	return img
}

func grating(rows, cols, period int, rng *rand.Rand) wavelet.Image {
	img := wavelet.NewImage(rows, cols)
	p1 := rng.Float64() * 2 * math.Pi
	p2 := rng.Float64() * 2 * math.Pi
	w := 2 * math.Pi / float64(period)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			img[r][c] = 0.5*math.Sin(w*float64(r)+p1) + 0.5*math.Sin(w*float64(c)+p2)
		}
	}
	return img
}

func checkerboard(rows, cols, period int) wavelet.Image {
	img := wavelet.NewImage(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if (r/period+c/period)%2 == 0 {
				img[r][c] = 0.8
			} else {
				img[r][c] = -0.8
			}
		}
	}
	return img
}

func gradient(rows, cols int) wavelet.Image {
	img := wavelet.NewImage(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			img[r][c] = float64(r)/float64(rows-1) + float64(c)/float64(cols-1) - 1
		}
	}
	return img
}

// normalize scales the image to peak magnitude 0.95 (leaving headroom so
// quantized pipelines stay inside the unit dynamic range).
func normalize(img wavelet.Image) {
	var peak float64
	for _, row := range img {
		for _, v := range row {
			if a := math.Abs(v); a > peak {
				peak = a
			}
		}
	}
	if peak == 0 {
		return
	}
	g := 0.95 / peak
	for _, row := range img {
		for i := range row {
			row[i] *= g
		}
	}
}

// WritePGM writes the image as an 8-bit binary PGM, mapping [lo, hi] to
// [0, 255] with clipping.
func WritePGM(w io.Writer, img wavelet.Image, lo, hi float64) error {
	rows, cols := img.Dims()
	if rows == 0 {
		return fmt.Errorf("imagegen: empty image")
	}
	if hi <= lo {
		return fmt.Errorf("imagegen: bad range [%g, %g]", lo, hi)
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", cols, rows); err != nil {
		return err
	}
	scale := 255 / (hi - lo)
	for _, row := range img {
		for _, v := range row {
			p := (v - lo) * scale
			if p < 0 {
				p = 0
			}
			if p > 255 {
				p = 255
			}
			if err := bw.WriteByte(byte(p + 0.5)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
