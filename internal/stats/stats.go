// Package stats provides the statistical helpers shared by the accuracy
// experiments: moments, Welford running statistics, the paper's Ed
// deviation metric (Eq. 15), and batch summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or 0 for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance (divide by N) of x.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// MeanSquare returns E[x^2] = (1/N) sum x^2, the quantity the paper calls
// error power.
func MeanSquare(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s / float64(len(x))
}

// Ed computes the paper's MSE deviation metric (Eq. 15):
//
//	Ed = (E[err_sim^2] - E[err_est^2]) / E[err_sim^2]
//
// A value inside (-75 %, +300 %) corresponds to sub-one-bit estimation
// accuracy. Returned as a fraction (0.01 == 1 %). Ed is NaN when the
// simulated power is zero.
func Ed(simPower, estPower float64) float64 {
	if simPower == 0 {
		return math.NaN()
	}
	return (simPower - estPower) / simPower
}

// EdSE propagates the standard error of the simulated power to Ed: to
// first order, dEd/dsim = est/sim^2. NaN inputs propagate.
func EdSE(simPower, simSE, estPower float64) float64 {
	return estPower * simSE / (simPower * simPower)
}

// SubOneBit reports whether an Ed value (fraction) lies inside the
// sub-one-bit accuracy band (-75 %, +300 %) derived in the paper from the
// 4x power ratio between successive fractional word-lengths.
func SubOneBit(ed float64) bool {
	return ed > -3.0 && ed < 0.75
}

// EquivalentBits converts an Ed fraction into the word-length error it
// corresponds to: |log4(1-Ed)| bits (a 1-bit change scales noise power by 4).
// NaN inputs propagate.
func EquivalentBits(ed float64) float64 {
	r := 1 - ed
	if r <= 0 {
		return math.Inf(1)
	}
	return math.Abs(math.Log(r) / math.Log(4))
}

// Running accumulates mean and variance incrementally using Welford's
// algorithm; it is numerically stable for long Monte-Carlo runs.
type Running struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// AddSlice folds every value of x into the accumulator.
func (r *Running) AddSlice(x []float64) {
	for _, v := range x {
		r.Add(v)
	}
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the running mean.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the running population variance.
func (r *Running) Variance() float64 {
	if r.n == 0 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// MeanSquare returns the running E[x^2] = mean^2 + variance.
func (r *Running) MeanSquare() float64 {
	return r.mean*r.mean + r.Variance()
}

// Merge folds another accumulator into r (parallel Welford combination).
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n := r.n + o.n
	d := o.mean - r.mean
	r.m2 += o.m2 + d*d*float64(r.n)*float64(o.n)/float64(n)
	r.mean += d * float64(o.n) / float64(n)
	r.n = n
}

// Summary holds order statistics of a batch of scalar results, used for the
// Table-I style min/max/mean(|.|) rows.
type Summary struct {
	N        int
	Min      float64
	Max      float64
	Mean     float64
	MeanAbs  float64
	Median   float64
	StdDev   float64
	MaxAbs   float64
	Quantile func(p float64) float64 `json:"-"`
}

// Summarize computes a Summary over x. NaN values are excluded and counted
// out of N. Empty (or all-NaN) input yields a zero Summary.
func Summarize(x []float64) Summary {
	clean := make([]float64, 0, len(x))
	for _, v := range x {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	if len(clean) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), clean...)
	sort.Float64s(sorted)
	s := Summary{
		N:    len(clean),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		Mean: Mean(clean),
	}
	for _, v := range clean {
		a := math.Abs(v)
		s.MeanAbs += a
		if a > s.MaxAbs {
			s.MaxAbs = a
		}
	}
	s.MeanAbs /= float64(len(clean))
	s.StdDev = math.Sqrt(Variance(clean))
	s.Median = quantileSorted(sorted, 0.5)
	s.Quantile = func(p float64) float64 { return quantileSorted(sorted, p) }
	return s
}

func quantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// String renders a Summary as a compact single line with percentages.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g%% max=%.4g%% mean|.|=%.4g%%",
		s.N, 100*s.Min, 100*s.Max, 100*s.MeanAbs)
}

// DB converts a power ratio to decibels; zero or negative ratios map to -Inf.
func DB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// SQNR returns the signal-to-quantization-noise ratio in dB.
func SQNR(signalPower, noisePower float64) float64 {
	if noisePower <= 0 {
		return math.Inf(1)
	}
	return DB(signalPower / noisePower)
}
