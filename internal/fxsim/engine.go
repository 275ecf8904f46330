package fxsim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/filter"
	"repro/internal/fixed"
	"repro/internal/sfg"
)

// engine is one execution of a graph — the double-precision reference or
// the fixed-point run — advanced a chunk at a time. Every node keeps its
// state (filter and delay lines, decimation phase, noise stream) between
// chunks, so any chunking of the input yields the same output samples.
type engine struct {
	steps []step      // one per node, in topological order
	outs  [][]float64 // each step's output in the current push
	out   int         // the output node's step
}

// step is one node of the topological order.
type step struct {
	proc  processor
	src   int  // the input's index (input nodes) or the predecessor's step
	input bool // src indexes the pushed inputs
	sum   *sum // set for adders, which read their queues instead of src
}

func newEngine(g *sfg.Graph, order []sfg.NodeID, fixedPoint bool, seed int64) (*engine, error) {
	pos := make([]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	inputs := make(map[sfg.NodeID]int)
	for i, id := range g.Inputs() {
		inputs[id] = i
	}
	e := &engine{steps: make([]step, len(order)), outs: make([][]float64, len(order))}
	for i, id := range order {
		n := g.Node(id)
		proc, err := newProcessor(n, fixedPoint, seed)
		if err != nil {
			return nil, err
		}
		st := step{proc: proc}
		switch preds := g.Pred(id); {
		case n.Kind == sfg.KindInput:
			st.src, st.input = inputs[id], true
		case n.Kind == sfg.KindAdder:
			st.sum = &sum{queues: make([][]float64, len(preds))}
		default:
			st.src = pos[preds[0]]
		}
		if n.Kind == sfg.KindOutput {
			e.out = i
		}
		e.steps[i] = st
	}
	// An adder sums its edges in the order their sources run, an edge
	// listed twice counting twice.
	for i, id := range order {
		for _, s := range g.Succ(id) {
			if a := e.steps[pos[s]].sum; a != nil {
				a.from = append(a.from, i)
			}
		}
	}
	return e, nil
}

// push advances every node by the next input chunk (one slice per graph
// input, in g.Inputs() order) and returns the output samples produced. On
// the final push adders flush the tails their longer inputs ran ahead by.
func (e *engine) push(x [][]float64, final bool) []float64 {
	for i := range e.steps {
		st := &e.steps[i]
		var in []float64
		switch {
		case st.sum != nil:
			in = st.sum.next(e.outs, final)
		case st.input:
			in = x[st.src]
		default:
			in = e.outs[st.src]
		}
		e.outs[i] = st.proc.process(in)
	}
	return e.outs[e.out]
}

// sum is an adder's input side: one queue per incoming edge, so a branch
// that runs ahead (a different rate or delay) waits for the others.
type sum struct {
	from   []int // source step of each edge
	queues [][]float64
	out    buffer
}

// next queues this push's samples of every edge and sums the prefix all
// edges have reached; on the final push it sums everything, an exhausted
// edge contributing zero.
func (s *sum) next(outs [][]float64, final bool) []float64 {
	for k, p := range s.from {
		s.queues[k] = append(s.queues[k], outs[p]...)
	}
	n := len(s.queues[0])
	for _, q := range s.queues[1:] {
		if final {
			n = max(n, len(q))
		} else {
			n = min(n, len(q))
		}
	}
	out := s.out.take(n)
	clear(out)
	for k, q := range s.queues {
		m := min(n, len(q))
		for i, v := range q[:m] {
			out[i] += v
		}
		s.queues[k] = q[:copy(q, q[m:])]
	}
	return out
}

// processor is one node's semantics. process consumes the next input
// samples and returns the output samples they produce; the returned slice
// is valid until the next call.
type processor interface {
	process(in []float64) []float64
}

func newProcessor(n *sfg.Node, fixedPoint bool, seed int64) (processor, error) {
	var p processor
	switch n.Kind {
	case sfg.KindInput, sfg.KindAdder, sfg.KindOutput:
		p = pass{}
	case sfg.KindGain:
		p = &gain{g: n.Gain}
	case sfg.KindFilter:
		p = &filt{st: filter.NewState(n.Filt)}
	case sfg.KindDelay:
		p = &delay{line: make([]float64, n.Delay)}
	case sfg.KindDown:
		p = &down{factor: n.Factor}
	case sfg.KindUp:
		p = &up{factor: n.Factor}
	case sfg.KindCustom:
		return nil, fmt.Errorf("fxsim: cannot simulate custom node %q: it has a frequency response only", n.Name)
	default:
		return nil, fmt.Errorf("fxsim: cannot simulate node %q of kind %v", n.Name, n.Kind)
	}
	if !fixedPoint || n.Noise == nil {
		return p, nil
	}
	if ov := n.Noise.Override; ov != nil {
		// Derived source: additive white noise with the override moments
		// (uniform, matching the PQN shape) from the node's own stream.
		return &additive{
			inner:    p,
			mean:     ov.Mean,
			halfSpan: math.Sqrt(3 * ov.Variance),
			rng:      rand.New(rand.NewSource(streamSeed(seed, 2*uint64(n.ID)+1))),
		}, nil
	}
	return &quantize{inner: p, q: fixed.NewQuantizer(n.Noise.Frac, n.Noise.Mode)}, nil
}

// buffer is a processor's reusable output.
type buffer []float64

// take returns the buffer resized to n samples, reallocating only to grow.
func (b *buffer) take(n int) []float64 {
	if cap(*b) < n {
		*b = make([]float64, n)
	}
	*b = (*b)[:n]
	return *b
}

type pass struct{}

func (pass) process(in []float64) []float64 { return in }

type gain struct {
	g   float64
	out buffer
}

func (p *gain) process(in []float64) []float64 {
	out := p.out.take(len(in))
	for i, v := range in {
		out[i] = p.g * v
	}
	return out
}

type filt struct {
	st  *filter.State
	out buffer
}

func (p *filt) process(in []float64) []float64 {
	out := p.out.take(len(in))
	for i, v := range in {
		out[i] = p.st.Step(v)
	}
	return out
}

// delay holds its last len(line) inputs between chunks.
type delay struct {
	line []float64
	out  buffer
}

func (p *delay) process(in []float64) []float64 {
	p.line = append(p.line, in...)
	out := p.out.take(len(in))
	copy(out, p.line)
	p.line = p.line[:copy(p.line, p.line[len(in):])]
	return out
}

// down keeps every factor-th sample, the first one included.
type down struct {
	factor int
	skip   int // samples to drop before the next kept one
	out    buffer
}

func (p *down) process(in []float64) []float64 {
	out := p.out.take(0)
	i := p.skip
	for ; i < len(in); i += p.factor {
		out = append(out, in[i])
	}
	p.skip = i - len(in)
	p.out = out
	return out
}

// up follows every sample with factor-1 zeros.
type up struct {
	factor int
	out    buffer
}

func (p *up) process(in []float64) []float64 {
	out := p.out.take(len(in) * p.factor)
	clear(out)
	for i, v := range in {
		out[i*p.factor] = v
	}
	return out
}

// quantize snaps the wrapped node's output onto the source's grid.
type quantize struct {
	inner processor
	q     *fixed.Quantizer
	out   buffer
}

func (p *quantize) process(in []float64) []float64 {
	x := p.inner.process(in)
	out := p.out.take(len(x))
	for i, v := range x {
		out[i] = p.q.Apply(v)
	}
	return out
}

// additive perturbs the wrapped node's output by i.i.d. uniform noise
// with the given mean and half-span.
type additive struct {
	inner          processor
	mean, halfSpan float64
	rng            *rand.Rand
	out            buffer
}

func (p *additive) process(in []float64) []float64 {
	x := p.inner.process(in)
	out := p.out.take(len(x))
	for i, v := range x {
		out[i] = v + p.mean + (p.rng.Float64()*2-1)*p.halfSpan
	}
	return out
}
