package wavelet

import (
	"fmt"
)

// Image is a row-major grayscale image with float64 samples.
type Image [][]float64

// NewImage allocates a rows x cols zero image.
func NewImage(rows, cols int) Image {
	img := make(Image, rows)
	for r := range img {
		img[r] = make([]float64, cols)
	}
	return img
}

// Clone deep-copies the image.
func (im Image) Clone() Image {
	out := make(Image, len(im))
	for r := range im {
		out[r] = append([]float64(nil), im[r]...)
	}
	return out
}

// Dims returns rows, cols.
func (im Image) Dims() (int, int) {
	if len(im) == 0 {
		return 0, 0
	}
	return len(im), len(im[0])
}

// Analyze2DQ performs a levels-deep separable 2-D DWT with the quadrant
// layout of JPEG-2000: after each level the working region's rows are
// transformed first, then its columns (the paper's encoder order), leaving
// LL in the top-left quadrant for the next level. Both dimensions must be
// divisible by 2^levels. The result replaces the image contents; the input
// is not modified. q quantizes after every directional filter pass (the
// fixed-point encoder); zero Quantizers give the exact transform.
func (b Bank) Analyze2DQ(img Image, levels int, q Quantizers) (Image, error) {
	rows, cols := img.Dims()
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("wavelet: empty image")
	}
	if levels < 1 {
		return nil, fmt.Errorf("wavelet: levels %d < 1", levels)
	}
	if rows%(1<<uint(levels)) != 0 || cols%(1<<uint(levels)) != 0 {
		return nil, fmt.Errorf("wavelet: %dx%d not divisible by 2^%d", rows, cols, levels)
	}
	out := img.Clone()
	r, c := rows, cols
	for l := 0; l < levels; l++ {
		// Rows.
		for i := 0; i < r; i++ {
			a, d, err := b.AnalyzeOnce(out[i][:c])
			if err != nil {
				return nil, err
			}
			copy(out[i][:c/2], applyQ(q.Analysis, a))
			copy(out[i][c/2:c], applyQ(q.Analysis, d))
		}
		// Columns.
		col := make([]float64, r)
		for j := 0; j < c; j++ {
			for i := 0; i < r; i++ {
				col[i] = out[i][j]
			}
			a, d, err := b.AnalyzeOnce(col)
			if err != nil {
				return nil, err
			}
			a = applyQ(q.Analysis, a)
			d = applyQ(q.Analysis, d)
			for i := 0; i < r/2; i++ {
				out[i][j] = a[i]
				out[i+r/2][j] = d[i]
			}
		}
		r /= 2
		c /= 2
	}
	return out, nil
}

// Synthesize2DQ inverts Analyze2DQ, quantizing after every directional
// filter pass (the fixed-point decoder); zero Quantizers give the exact
// inverse.
func (b Bank) Synthesize2DQ(coeffs Image, levels int, q Quantizers) (Image, error) {
	rows, cols := coeffs.Dims()
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("wavelet: empty coefficient image")
	}
	if levels < 1 {
		return nil, fmt.Errorf("wavelet: levels %d < 1", levels)
	}
	if rows%(1<<uint(levels)) != 0 || cols%(1<<uint(levels)) != 0 {
		return nil, fmt.Errorf("wavelet: %dx%d not divisible by 2^%d", rows, cols, levels)
	}
	out := coeffs.Clone()
	for l := levels - 1; l >= 0; l-- {
		r := rows >> uint(l)
		c := cols >> uint(l)
		// Columns first (inverse of the encoder's rows-then-columns).
		colA := make([]float64, r/2)
		colD := make([]float64, r/2)
		for j := 0; j < c; j++ {
			for i := 0; i < r/2; i++ {
				colA[i] = out[i][j]
				colD[i] = out[i+r/2][j]
			}
			y, err := b.synthOnceQ(colA, colD, q)
			if err != nil {
				return nil, err
			}
			for i := 0; i < r; i++ {
				out[i][j] = y[i]
			}
		}
		// Rows.
		for i := 0; i < r; i++ {
			a := append([]float64(nil), out[i][:c/2]...)
			d := append([]float64(nil), out[i][c/2:c]...)
			y, err := b.synthOnceQ(a, d, q)
			if err != nil {
				return nil, err
			}
			copy(out[i][:c], y)
		}
	}
	return out, nil
}

// synthOnceQ is one quantized synthesis step (branches quantized before the
// adder, the sum quantized after).
func (b Bank) synthOnceQ(approx, detail []float64, q Quantizers) ([]float64, error) {
	if q.Synthesis == nil {
		return b.SynthesizeOnce(approx, detail)
	}
	n := 2 * len(approx)
	if len(detail) != len(approx) {
		return nil, fmt.Errorf("wavelet: subband lengths %d and %d differ", len(approx), len(detail))
	}
	ua := make([]float64, n)
	ud := make([]float64, n)
	for i := 0; i < len(approx); i++ {
		ua[(2*i+b.off.phA)%n] = approx[i]
		ud[(2*i+b.off.phD)%n] = detail[i]
	}
	ya := applyQ(q.Synthesis, cconv(ua, b.G0, b.off.offG0))
	yd := applyQ(q.Synthesis, cconv(ud, b.G1, b.off.offG1))
	out := make([]float64, n)
	for i := range out {
		out[i] = ya[i] + yd[i]
	}
	return applyQ(q.Synthesis, out), nil
}
