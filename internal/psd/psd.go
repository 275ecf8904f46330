// Package psd implements the power-spectral-density substrate of the
// paper's method: a discrete PSD type sampled on N uniform bins of
// normalized frequency [0,1), propagation through LTI blocks (Eq. 11),
// adders (Eq. 12/14), and multirate blocks (aliasing for decimation,
// imaging for expansion), plus Welch estimation from sample runs.
//
// Representation: Bins[k] holds the power of the zero-mean (AC) part of the
// signal in the band around F = k/N, so sum(Bins) == variance (the discrete
// form of Eq. 9). The deterministic mean is carried separately as a signed
// scalar rather than folded into the DC bin: means of distinct noise sources
// always add coherently (they are constants), which reproduces the
// L_ij*mu_i*mu_j cross-terms of the flat method (Eq. 4) exactly, while AC
// parts of distinct sources are uncorrelated under the PQN model and add
// per Eq. 14.
package psd

import (
	"fmt"
	"math"
)

// PSD is a discretized power spectral density plus the signed mean of the
// underlying signal.
type PSD struct {
	// Mean is the deterministic (DC) component, signed.
	Mean float64
	// Bins holds per-bin AC power over F = k/len(Bins); sum equals the
	// variance of the signal.
	Bins []float64
}

// New returns a zero PSD with n bins.
func New(n int) PSD {
	if n < 1 {
		panic(fmt.Sprintf("psd: bin count %d < 1", n))
	}
	return PSD{Bins: make([]float64, n)}
}

// Clone returns a deep copy.
func (p PSD) Clone() PSD {
	out := PSD{Mean: p.Mean, Bins: make([]float64, len(p.Bins))}
	copy(out.Bins, p.Bins)
	return out
}

// Variance returns the AC power, sum of bins.
func (p PSD) Variance() float64 { return Sum(p.Bins) }

// Sum returns the sequential left-to-right sum of bins — the canonical
// bin-summation order every evaluator shares, so variances computed from
// the same bins are bit-identical no matter which code path produced them.
func Sum(bins []float64) float64 {
	var s float64
	for _, v := range bins {
		s += v
	}
	return s
}

// ScaleInto writes src scaled by g into dst (dst[k] = g * src[k]) and
// returns dst. It is the fused kernel of the transfer-cache evaluation
// path: one multiply per bin turns a cached unit-variance profile into a
// source's contribution. dst and src must have equal length (dst == src is
// allowed).
func ScaleInto(dst, src []float64, g float64) []float64 {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("psd: scale into %d bins, want %d", len(dst), len(src)))
	}
	for k, v := range src {
		dst[k] = g * v
	}
	return dst
}

// AddInto writes the per-bin sum of a and b into dst (dst[k] = a[k] + b[k])
// and returns dst. It is the fused combine kernel of the contribution
// reduction tree; all three slices must have equal length and dst may alias
// either input.
func AddInto(dst, a, b []float64) []float64 {
	if len(dst) != len(a) || len(a) != len(b) {
		panic(fmt.Sprintf("psd: add into %d bins from %d and %d", len(dst), len(a), len(b)))
	}
	for k := range dst {
		dst[k] = a[k] + b[k]
	}
	return dst
}

// ApplyLTIInPlace propagates the PSD through an LTI block with the sampled
// complex frequency response resp (len(resp) must equal len(Bins)): p's own
// bins are scaled by |H|^2 (Eq. 11), its mean by the real DC gain H(0).
func (p *PSD) ApplyLTIInPlace(resp []complex128) {
	if len(resp) != len(p.Bins) {
		panic(fmt.Sprintf("psd: response length %d != bins %d", len(resp), len(p.Bins)))
	}
	p.Mean *= real(resp[0])
	for i, h := range resp {
		re, im := real(h), imag(h)
		p.Bins[i] *= re*re + im*im
	}
}

// AddInPlace accumulates an uncorrelated signal's PSD into p (Eq. 14)
// without allocating: AC bins add, means add signed.
func (p *PSD) AddInPlace(o PSD) {
	if len(o.Bins) != len(p.Bins) {
		panic(fmt.Sprintf("psd: adding PSDs with %d and %d bins", len(p.Bins), len(o.Bins)))
	}
	p.Mean += o.Mean
	for i, v := range o.Bins {
		p.Bins[i] += v
	}
}

// DownsampleInto writes into out the PSD after keeping every factor-th
// sample, and returns out. The variance of a wide-sense-stationary process
// is invariant under decimation; the spectrum aliases:
//
//	D_out(F) = (1/M) sum_{m=0}^{M-1} D_in((F+m)/M)
//
// evaluated with circular linear interpolation of the input density so that
// power lands between grid points smoothly. The mean is unchanged. out must
// have p's bin count (its contents are overwritten) and must not alias p.
func (p PSD) DownsampleInto(out PSD, factor int) PSD {
	if factor < 1 {
		panic(fmt.Sprintf("psd: downsample factor %d", factor))
	}
	n := len(p.Bins)
	if len(out.Bins) != n {
		panic(fmt.Sprintf("psd: downsample into %d bins, want %d", len(out.Bins), n))
	}
	if factor == 1 {
		copy(out.Bins, p.Bins)
		out.Mean = p.Mean
		return out
	}
	out.Mean = p.Mean
	fn := float64(n)
	for j := 0; j < n; j++ {
		var s float64
		for m := 0; m < factor; m++ {
			// Input position in bins: (j + m*n) / factor.
			pos := (float64(j) + float64(m)*fn) / float64(factor)
			s += p.densityAt(pos)
		}
		out.Bins[j] = s / (float64(factor) * fn)
	}
	return out
}

// densityAt returns the PSD density (power per unit normalized frequency)
// at fractional bin position pos, via circular linear interpolation. The
// in-range fast path skips the float modulo (the identity for
// 0 <= pos < n) — DownsampleInto's positions always land there, and the
// reduction was a fifth of plan-build time under the profiler.
func (p PSD) densityAt(pos float64) float64 {
	n := len(p.Bins)
	fn := float64(n)
	if pos < 0 || pos >= fn {
		pos = math.Mod(pos, fn)
		if pos < 0 {
			pos += fn
			if pos >= fn {
				// A tiny negative remainder rounds -ε + fn up to exactly
				// fn; wrap to 0 like the old i % n did (same interpolands:
				// frac is 0 either way).
				pos = 0
			}
		}
	}
	i := int(pos)
	frac := pos - float64(i)
	i1 := i + 1
	if i1 == n {
		i1 = 0
	}
	d0 := p.Bins[i] * fn
	d1 := p.Bins[i1] * fn
	return d0*(1-frac) + d1*frac
}

// UpsampleInto writes into out the PSD after zero-stuffing by factor L, and
// returns out. For a wide-sense-stationary input, r_y[m] = r_x[m/L]/L when
// L divides m and 0 otherwise, so the density is S_y(F) = S_x(L F mod 1)/L
// (imaging) and the total power divides by L. Integrating the density over
// each output bin gives the exact grid rule
//
//	Bins_out[j] = (1/L^2) * sum_{m=0}^{L-1} Bins_in[(L j + m) mod N]
//
// The mean divides by L (zero samples dilute the DC component). out must
// have p's bin count (its contents are overwritten) and must not alias p.
func (p PSD) UpsampleInto(out PSD, factor int) PSD {
	if factor < 1 {
		panic(fmt.Sprintf("psd: upsample factor %d", factor))
	}
	n := len(p.Bins)
	if len(out.Bins) != n {
		panic(fmt.Sprintf("psd: upsample into %d bins, want %d", len(out.Bins), n))
	}
	if factor == 1 {
		copy(out.Bins, p.Bins)
		out.Mean = p.Mean
		return out
	}
	out.Mean = p.Mean / float64(factor)
	inv := 1 / float64(factor*factor)
	// idx walks (factor*j + m) mod n incrementally — the same indices the
	// direct modulo produces, without a division per sample.
	for j := 0; j < n; j++ {
		idx := (factor * j) % n
		var s float64
		for m := 0; m < factor; m++ {
			s += p.Bins[idx]
			idx++
			if idx == n {
				idx = 0
			}
		}
		out.Bins[j] = s * inv
	}
	return out
}

// Resample changes the bin count to m by integrating the density over the
// new bins (linear interpolation); total variance is preserved to first
// order. Used when comparing PSDs estimated on different grids.
func (p PSD) Resample(m int) PSD {
	if m < 1 {
		panic(fmt.Sprintf("psd: resample to %d bins", m))
	}
	n := len(p.Bins)
	if m == n {
		return p.Clone()
	}
	out := New(m)
	out.Mean = p.Mean
	// Sample the density at the center of each new bin and scale by the
	// new bin width; exact for piecewise-linear densities.
	fn := float64(n)
	fm := float64(m)
	for k := 0; k < m; k++ {
		center := (float64(k) + 0.5) / fm * fn
		out.Bins[k] = p.densityAt(center-0.5) / fm
	}
	// Renormalize to preserve variance exactly.
	v := p.Variance()
	ov := out.Variance()
	if ov > 0 {
		g := v / ov
		for k := range out.Bins {
			out.Bins[k] *= g
		}
	}
	return out
}
