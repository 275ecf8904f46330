package psd

import (
	"fmt"

	"repro/internal/dsp"
	"repro/internal/fft"
	"repro/internal/stats"
)

// EstimateOptions configures Welch PSD estimation.
type EstimateOptions struct {
	// Bins is the segment length and resulting PSD grid size.
	Bins int
	// Window tapers each segment; dsp.Rectangular by default.
	Window dsp.WindowType
	// Overlap is the fraction of segment overlap in [0, 0.9]; 0.5 is
	// typical for tapered windows.
	Overlap float64
}

// Estimate computes a Welch PSD of x on opts.Bins bins. The sample mean is
// removed first and reported as PSD.Mean; the AC bins are normalized so
// their sum equals the sample variance:
//
//	Bins[k] = avg over segments of |FFT(w .* seg)[k]|^2 / (Nseg * sum(w^2))
//
// which is unbiased for noise-like signals (E sum Bins = variance for white
// input regardless of window).
func Estimate(x []float64, opts EstimateOptions) (PSD, error) {
	n := opts.Bins
	if n < 2 {
		return PSD{}, fmt.Errorf("psd: estimate needs >= 2 bins, got %d", n)
	}
	if len(x) < n {
		return PSD{}, fmt.Errorf("psd: signal length %d shorter than segment %d", len(x), n)
	}
	if opts.Overlap < 0 || opts.Overlap > 0.9 {
		return PSD{}, fmt.Errorf("psd: overlap %g outside [0, 0.9]", opts.Overlap)
	}
	mean := stats.Mean(x)
	w := dsp.Window(opts.Window, n)
	var wss float64
	for _, v := range w {
		wss += v * v
	}
	hop := int(float64(n) * (1 - opts.Overlap))
	if hop < 1 {
		hop = 1
	}
	out := New(n)
	out.Mean = mean
	plan := fft.NewPlan()
	buf := make([]complex128, n)
	segments := 0
	for start := 0; start+n <= len(x); start += hop {
		for i := 0; i < n; i++ {
			buf[i] = complex((x[start+i]-mean)*w[i], 0)
		}
		plan.ForwardInPlace(buf)
		for k := 0; k < n; k++ {
			re, im := real(buf[k]), imag(buf[k])
			out.Bins[k] += re*re + im*im
		}
		segments++
	}
	norm := 1 / (float64(segments) * float64(n) * wss)
	for k := range out.Bins {
		out.Bins[k] *= norm
	}
	return out, nil
}
