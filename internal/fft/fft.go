// Package fft provides fast Fourier transforms used throughout the
// accuracy-evaluation library: an iterative radix-2 Cooley-Tukey transform
// for power-of-two lengths, a Bluestein chirp-z transform for arbitrary
// lengths, real-input fast paths, and a separable 2-D transform.
//
// Conventions: the forward transform computes
//
//	X[k] = sum_{n=0}^{N-1} x[n] * exp(-2*pi*i*k*n/N)
//
// with no scaling, and the inverse applies the 1/N factor, so the inverse
// undoes the forward transform up to floating-point rounding.
//
// A Plan is safe for concurrent use: the twiddle and Bluestein caches are
// guarded internally, and the transforms themselves only touch caller-owned
// slices plus per-call scratch. The package-level convenience functions all
// share one process-wide plan, so repeated transforms of recurring sizes hit
// warm tables from any goroutine.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPow2 returns the smallest power of two >= n. It panics if n <= 0 or if
// the result would overflow an int.
func NextPow2(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("fft: NextPow2 of non-positive %d", n))
	}
	if IsPow2(n) {
		return n
	}
	p := 1 << bits.Len(uint(n))
	if p <= 0 {
		panic(fmt.Sprintf("fft: NextPow2 overflow for %d", n))
	}
	return p
}

// Plan holds reusable state (twiddle tables, Bluestein chirps) for repeated
// transforms. The zero value is ready to use. Plans are safe for concurrent
// use by multiple goroutines; the cached tables are built once and only read
// thereafter.
type Plan struct {
	mu        sync.RWMutex
	tw        map[int][]complex128 // exp(-2*pi*i*j/size) for j < size/2
	bluestein map[int]*bluesteinPlan
}

// NewPlan returns an empty Plan. Plans lazily build and cache per-size
// tables on first use.
func NewPlan() *Plan { return &Plan{} }

// defaultPlan backs the package-level convenience functions; sharing it
// means every caller in the process reuses the same warm tables.
var defaultPlan = NewPlan()

// twiddles returns the forward twiddle table for size n (n/2 entries),
// building and caching it on first use.
func (p *Plan) twiddles(n int) []complex128 {
	p.mu.RLock()
	tw, ok := p.tw[n]
	p.mu.RUnlock()
	if ok {
		return tw
	}
	tw = make([]complex128, n/2)
	for j := range tw {
		ang := -2 * math.Pi * float64(j) / float64(n)
		tw[j] = cmplx.Exp(complex(0, ang))
	}
	p.mu.Lock()
	if p.tw == nil {
		p.tw = make(map[int][]complex128)
	}
	// Another goroutine may have raced the build; keep the first table so
	// in-flight readers and this caller agree on one backing array.
	if prev, ok := p.tw[n]; ok {
		tw = prev
	} else {
		p.tw[n] = tw
	}
	p.mu.Unlock()
	return tw
}

// ForwardInPlace computes the unscaled DFT of x in place when the length is
// a power of two; other lengths transparently go through Bluestein (which
// allocates scratch internally).
func (p *Plan) ForwardInPlace(x []complex128) {
	n := len(x)
	switch {
	case n == 0:
		panic("fft: transform of empty slice")
	case n == 1:
		return
	case IsPow2(n):
		p.radix2(x, false)
	default:
		p.bluesteinTransform(x, false)
	}
}

// InverseInPlace computes the inverse DFT of x in place, including the 1/N
// scaling.
func (p *Plan) InverseInPlace(x []complex128) {
	n := len(x)
	switch {
	case n == 0:
		panic("fft: transform of empty slice")
	case n == 1:
		return
	case IsPow2(n):
		p.radix2(x, true)
	default:
		p.bluesteinTransform(x, true)
	}
	inv := 1 / float64(n)
	for i := range x {
		x[i] *= complex(inv, 0)
	}
}

// RealForward computes the DFT of a real sequence, returning the full
// conjugate-symmetric complex spectrum of the same length. Even lengths pay
// only one half-length complex transform (the packing trick); odd lengths
// fall back to the full complex path.
func (p *Plan) RealForward(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		panic("fft: transform of empty slice")
	}
	out := make([]complex128, n)
	if n == 1 {
		out[0] = complex(x[0], 0)
		return out
	}
	if n%2 != 0 {
		for i, v := range x {
			out[i] = complex(v, 0)
		}
		p.ForwardInPlace(out)
		return out
	}
	h := n / 2
	z := make([]complex128, h)
	for j := 0; j < h; j++ {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	p.ForwardInPlace(z)
	tw := p.twiddles(n)
	// Untangle the packed half-length spectrum: with E/O the spectra of the
	// even/odd subsequences, X[k] = E[k] + W^k O[k] and X[k+h] = E[k] - W^k
	// O[k]; conjugate symmetry fills the upper half.
	for k := 0; k <= h; k++ {
		zk := z[k%h]
		zmk := cmplx.Conj(z[(h-k)%h])
		e := (zk + zmk) / 2
		o := (zk - zmk) / 2
		o = complex(imag(o), -real(o)) // -i * o
		w := complex(-1, 0)            // W^h
		if k < h {
			w = tw[k]
		}
		xk := e + w*o
		if k == h {
			out[h] = xk
			break
		}
		out[k] = xk
		if k > 0 {
			out[n-k] = cmplx.Conj(xk)
		}
	}
	return out
}

// radix2 runs the iterative decimation-in-time transform. inverse selects
// the conjugate twiddles; scaling is applied by the caller.
func (p *Plan) radix2(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	shift := bits.UintSize - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := p.twiddles(n)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			for j := 0; j < half; j++ {
				w := tw[j*step]
				if inverse {
					w = cmplx.Conj(w)
				}
				a := x[start+j]
				b := x[start+j+half] * w
				x[start+j] = a + b
				x[start+j+half] = a - b
			}
		}
	}
}

// bluesteinPlan caches the chirp sequences and the FFT-domain image of the
// chirp filter for one size.
type bluesteinPlan struct {
	n     int
	m     int          // power-of-two convolution length >= 2n-1
	chirp []complex128 // exp(-i*pi*k^2/n), k < n
	bFFT  []complex128 // FFT of the chirp filter, length m
}

func (p *Plan) getBluestein(n int) *bluesteinPlan {
	p.mu.RLock()
	bp, ok := p.bluestein[n]
	p.mu.RUnlock()
	if ok {
		return bp
	}
	m := NextPow2(2*n - 1)
	bp = &bluesteinPlan{n: n, m: m}
	bp.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// Use k*k mod 2n to keep the angle argument small and exact.
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := -math.Pi * float64(kk) / float64(n)
		bp.chirp[k] = cmplx.Exp(complex(0, ang))
	}
	b := make([]complex128, m)
	b[0] = cmplx.Conj(bp.chirp[0])
	for k := 1; k < n; k++ {
		c := cmplx.Conj(bp.chirp[k])
		b[k] = c
		b[m-k] = c
	}
	p.radix2(b, false)
	bp.bFFT = b
	p.mu.Lock()
	if p.bluestein == nil {
		p.bluestein = make(map[int]*bluesteinPlan)
	}
	if prev, ok := p.bluestein[n]; ok {
		bp = prev
	} else {
		p.bluestein[n] = bp
	}
	p.mu.Unlock()
	return bp
}

// bluesteinTransform computes an arbitrary-length DFT as a chirp-modulated
// convolution carried out with power-of-two FFTs.
func (p *Plan) bluesteinTransform(x []complex128, inverse bool) {
	n := len(x)
	bp := p.getBluestein(n)
	a := make([]complex128, bp.m)
	for k := 0; k < n; k++ {
		v := x[k]
		if inverse {
			v = cmplx.Conj(v)
		}
		a[k] = v * bp.chirp[k]
	}
	p.radix2(a, false)
	for i := range a {
		a[i] *= bp.bFFT[i]
	}
	p.radix2(a, true)
	scale := complex(1/float64(bp.m), 0)
	for k := 0; k < n; k++ {
		v := a[k] * scale * bp.chirp[k]
		if inverse {
			v = cmplx.Conj(v)
		}
		x[k] = v
	}
}

// Magnitude2 returns |X[k]|^2 for each bin of a spectrum.
func Magnitude2(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		re, im := real(v), imag(v)
		out[i] = re*re + im*im
	}
	return out
}

// DFTNaive computes the DFT by direct O(N^2) summation. It exists as a
// reference implementation for tests and for tiny sizes where clarity beats
// speed.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for m := 0; m < n; m++ {
			ang := -2 * math.Pi * float64(k) * float64(m) / float64(n)
			s += x[m] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

// Forward2D computes the separable 2-D DFT of a rows x cols matrix stored as
// row-major slices: transforms all rows, then all columns. The input is not
// modified.
func Forward2D(x [][]complex128) [][]complex128 {
	return transform2D(x, func(p *Plan, v []complex128) { p.ForwardInPlace(v) })
}

// Inverse2D computes the scaled inverse 2-D DFT.
func Inverse2D(x [][]complex128) [][]complex128 {
	return transform2D(x, func(p *Plan, v []complex128) { p.InverseInPlace(v) })
}

func transform2D(x [][]complex128, tf func(*Plan, []complex128)) [][]complex128 {
	rows := len(x)
	if rows == 0 {
		panic("fft: 2-D transform of empty matrix")
	}
	cols := len(x[0])
	out := make([][]complex128, rows)
	p := defaultPlan
	for r := range x {
		if len(x[r]) != cols {
			panic("fft: ragged 2-D input")
		}
		out[r] = make([]complex128, cols)
		copy(out[r], x[r])
		tf(p, out[r])
	}
	col := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = out[r][c]
		}
		tf(p, col)
		for r := 0; r < rows; r++ {
			out[r][c] = col[r]
		}
	}
	return out
}

// FrequencyResponse evaluates H(e^{j 2 pi k/n}) for k=0..n-1 of the rational
// transfer function with numerator b and denominator a (a[0] must be
// non-zero; pass a=nil or a=[1] for FIR) using the shared package plan. The
// evaluation zero-pads b and a to n and divides their DFTs pointwise, which
// is exact and O(n log n). n must be >= 1.
func FrequencyResponse(b, a []float64, n int) []complex128 {
	return defaultPlan.FrequencyResponse(b, a, n)
}

// FrequencyResponse is the Plan-bound form of the package-level function,
// for callers that manage their own table cache.
func (p *Plan) FrequencyResponse(b, a []float64, n int) []complex128 {
	if n <= 0 {
		panic("fft: FrequencyResponse with n <= 0")
	}
	if len(b) > n {
		// The DFT of a longer sequence on an n-grid aliases; evaluate
		// directly instead to stay exact.
		return evalDirect(b, a, n)
	}
	num := p.padSpectrum(b, n)
	if len(a) == 0 {
		return num
	}
	if len(a) > n {
		return evalDirect(b, a, n)
	}
	den := p.padSpectrum(a, n)
	out := make([]complex128, n)
	for k := range out {
		out[k] = num[k] / den[k]
	}
	return out
}

// padSpectrum zero-pads real coefficients to n and transforms through the
// real-input fast path.
func (p *Plan) padSpectrum(c []float64, n int) []complex128 {
	buf := make([]float64, n)
	copy(buf, c)
	return p.RealForward(buf)
}

// evalDirect evaluates the transfer function by Horner's rule in z^-1 at
// each grid frequency.
func evalDirect(b, a []float64, n int) []complex128 {
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		z := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
		out[k] = polyEval(b, z)
		if len(a) > 0 {
			out[k] /= polyEval(a, z)
		}
	}
	return out
}

func polyEval(c []float64, z complex128) complex128 {
	var acc complex128
	for i := len(c) - 1; i >= 0; i-- {
		acc = acc*z + complex(c[i], 0)
	}
	return acc
}
