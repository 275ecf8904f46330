// Package fxsim is the Monte-Carlo fixed-point simulation engine: it
// executes a signal-flow graph twice on the same stimulus — once in IEEE
// double precision (the reference, per Section II of the paper) and once
// with every block output quantized onto its 2^-d grid (the fixed-point
// run) — and measures the statistics and spectrum of the output error.
// This is the "simulation" column of every experiment in the paper.
//
// There is one simulator. It pushes the stimulus through both executions
// a fixed-length chunk at a time, with every node's state carried between
// chunks, so its memory does not grow with Config.Samples unless the error
// signal is kept (PSDBins or KeepError) and its results do not depend on
// the chunk length. The stimulus is i.i.d. uniform white noise on [-1, 1).
package fxsim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dsp"
	"repro/internal/psd"
	"repro/internal/sfg"
	"repro/internal/stats"
)

// Config parameterizes a simulation run.
type Config struct {
	// Samples is the stimulus length (the paper uses 1e6-1e7).
	Samples int
	// Seed seeds the deterministic stimulus generator. The first generated
	// input draws from Seed itself; further inputs and every override
	// noise source draw from their own streams derived from Seed and the
	// node ID.
	Seed int64
	// InputSignals overrides generation: per-input-node stimulus keyed by
	// node ID. When set, Samples/Seed are ignored for those nodes.
	InputSignals map[sfg.NodeID][]float64
	// PSDBins, when >= 2, requests a Welch estimate of the error spectrum
	// on that many bins.
	PSDBins int
	// Window tapers PSD estimation segments (dsp.Hann recommended).
	Window dsp.WindowType
	// KeepError retains the raw error signal in the outcome.
	KeepError bool
	// Workers bounds the number of shards RunParallel executes
	// concurrently; <= 0 selects runtime.GOMAXPROCS(0). The outcome is
	// deterministic for a fixed (Seed, shards) pair regardless of Workers.
	Workers int
}

// Outcome reports the measured fixed-point error at the graph output.
type Outcome struct {
	// Power is E[err^2], the simulated output error power.
	Power float64
	// PowerSE is the standard error of Power, from the spread of the mean
	// of err^2 over consecutive batches of 1024 output samples. It is NaN
	// when fewer than two batches complete.
	PowerSE float64
	// Mean and Variance decompose Power.
	Mean     float64
	Variance float64
	// RefPower is the reference output signal power (for SQNR).
	RefPower float64
	// ErrPSD is the Welch error spectrum when Config.PSDBins >= 2.
	ErrPSD psd.PSD
	// Err is the raw error signal when Config.KeepError is set.
	Err []float64
	// Samples is the number of output samples measured.
	Samples int
}

// SQNR returns the signal-to-quantization-noise ratio in dB.
func (o *Outcome) SQNR() float64 { return stats.SQNR(o.RefPower, o.Power) }

// chunkLen is the number of samples per input that Run pushes through the
// engines at a time. Outcomes do not depend on it; it trades per-chunk
// overhead against the cache footprint of the per-node buffers.
const chunkLen = 4096

// seBatch is the batch length, in output samples, of the batch means
// behind Outcome.PowerSE. It is independent of chunkLen, so PowerSE does
// not depend on the chunking either.
const seBatch = 1024

// Run simulates the graph and returns the measured error statistics.
func Run(g *sfg.Graph, cfg Config) (*Outcome, error) {
	acc, err := simulate(g, cfg, chunkLen)
	if err != nil {
		return nil, err
	}
	return acc.outcome()
}

// Measure is the simulator for a system implemented outside the graph
// engine. It draws cfg.Samples stimulus samples from cfg.Seed — the
// stimulus Run feeds a one-input graph — and passes them to sim. Then it
// measures sim's fixed-point output against its reference output with
// Run's accumulator.
func Measure(cfg Config, sim func(x []float64) (ref, fx []float64, err error)) (*Outcome, error) {
	if cfg.Samples <= 0 {
		return nil, fmt.Errorf("fxsim: non-positive sample count %d", cfg.Samples)
	}
	x := make([]float64, cfg.Samples)
	draw(rand.New(rand.NewSource(cfg.Seed)), x)
	ref, fx, err := sim(x)
	if err != nil {
		return nil, err
	}
	acc := &accumulator{cfg: cfg}
	acc.add(ref, fx)
	return acc.outcome()
}

// simulate is the simulator behind Run, RunParallel and the tests: it
// validates the graph, builds the reference and fixed-point engines, and
// pushes every input through both, chunk samples at a time, into one
// accumulator.
func simulate(g *sfg.Graph, cfg Config, chunk int) (*accumulator, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("fxsim: %w (simulation requires an acyclic graph; model feedback as IIR blocks)", err)
	}
	srcs, err := newSources(g, cfg)
	if err != nil {
		return nil, err
	}
	ref, err := newEngine(g, order, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	fx, err := newEngine(g, order, true, cfg.Seed)
	if err != nil {
		return nil, err
	}
	acc := &accumulator{cfg: cfg}
	x := make([][]float64, len(srcs))
	for more := true; more; {
		more = false
		for i := range srcs {
			x[i] = srcs[i].next(chunk)
			more = more || len(x[i]) > 0
		}
		// The last push carries no input and flushes what adders hold.
		acc.add(ref.push(x, !more), fx.push(x, !more))
	}
	return acc, nil
}

// draw fills x with the stimulus: i.i.d. uniform white noise on [-1, 1),
// which satisfies the PQN model's whiteness assumptions. Successive draws
// from one stream concatenate to a single long draw, so the stimulus does
// not depend on the chunk length.
func draw(rng *rand.Rand, x []float64) {
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
}

// source feeds one graph input: a slice of Config.InputSignals, or the
// stimulus drawn from the input's own stream.
type source struct {
	sig  []float64  // provided samples not yet pushed
	rng  *rand.Rand // stimulus stream; nil for a provided signal
	left int        // stimulus samples still to draw
	buf  buffer
}

func newSources(g *sfg.Graph, cfg Config) ([]source, error) {
	var srcs []source
	seed := cfg.Seed
	for _, id := range g.Inputs() {
		if sig, ok := cfg.InputSignals[id]; ok {
			srcs = append(srcs, source{sig: sig})
			continue
		}
		if cfg.Samples <= 0 {
			return nil, fmt.Errorf("fxsim: non-positive sample count %d", cfg.Samples)
		}
		srcs = append(srcs, source{rng: rand.New(rand.NewSource(seed)), left: cfg.Samples})
		seed = streamSeed(cfg.Seed, 2*uint64(id))
	}
	return srcs, nil
}

// next returns up to n further samples, none once the input is exhausted.
func (s *source) next(n int) []float64 {
	if s.rng == nil {
		x := s.sig[:min(n, len(s.sig))]
		s.sig = s.sig[len(x):]
		return x
	}
	x := s.buf.take(min(n, s.left))
	s.left -= len(x)
	draw(s.rng, x)
	return x
}

// streamSeed derives the seed of a private random stream from the run seed
// and a key (2·id for a further input's stimulus, 2·id+1 for a node's
// override noise) with the splitmix64 finalizer, so the streams of a run
// are unrelated to each other and to those of neighbouring seeds, which
// RunParallel's shards use.
func streamSeed(seed int64, key uint64) int64 {
	z := uint64(seed) + (key+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// accumulator folds the reference and fixed-point output samples into an
// Outcome. It keeps the error signal only when the PSD or the raw error
// is requested.
type accumulator struct {
	cfg      Config
	err, ref stats.Running
	sig      []float64
	batch    float64       // sum of err^2 over the open batch
	batchN   int           // samples in the open batch
	batches  stats.Running // means of err^2 over the completed batches
}

// add measures the next output samples of both executions.
func (a *accumulator) add(ref, fx []float64) {
	keep := a.cfg.PSDBins >= 2 || a.cfg.KeepError
	for i := range min(len(ref), len(fx)) {
		e := fx[i] - ref[i]
		a.err.Add(e)
		a.ref.Add(ref[i])
		if keep {
			a.sig = append(a.sig, e)
		}
		a.batch += e * e
		if a.batchN++; a.batchN == seBatch {
			a.batches.Add(a.batch / seBatch)
			a.batch, a.batchN = 0, 0
		}
	}
}

// merge folds another shard's accumulator into a (parallel Welford
// combination); the shards' open batches are dropped.
func (a *accumulator) merge(o *accumulator) {
	a.err.Merge(o.err)
	a.ref.Merge(o.ref)
	a.batches.Merge(o.batches)
}

func (a *accumulator) outcome() (*Outcome, error) {
	out := &Outcome{
		Power:    a.err.MeanSquare(),
		PowerSE:  math.NaN(),
		Mean:     a.err.Mean(),
		Variance: a.err.Variance(),
		RefPower: a.ref.MeanSquare(),
		Samples:  int(a.err.N()),
	}
	if k := float64(a.batches.N()); k >= 2 {
		// Sample variance of the batch means, scaled from one batch to
		// all measured samples.
		out.PowerSE = math.Sqrt(a.batches.Variance() * k / (k - 1) * seBatch / float64(out.Samples))
	}
	if a.cfg.PSDBins >= 2 {
		p, err := psd.Estimate(a.sig, psd.EstimateOptions{Bins: a.cfg.PSDBins, Window: a.cfg.Window, Overlap: 0.5})
		if err != nil {
			return nil, fmt.Errorf("fxsim: error PSD: %w", err)
		}
		out.ErrPSD = p
	}
	if a.cfg.KeepError {
		out.Err = a.sig
	}
	return out, nil
}
