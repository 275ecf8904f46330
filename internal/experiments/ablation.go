package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/qnoise"
	"repro/internal/sfg"
	"repro/internal/stats"
	"repro/internal/systems"
)

// AblationResult collects two studies of the evaluator's design choices:
// the linear-complexity claim for tau_eval and the value of coherent
// (complex path response) recombination over power-domain propagation.
type AblationResult struct {
	// Scaling holds per-N_PSD evaluation times on the DWT graph.
	Scaling []struct {
		NPSD int
		Time time.Duration
	}
	// Recombination compares the proposed and agnostic methods on a
	// cancelling-paths graph where the exact answer is zero.
	Recombination struct {
		ProposedPower float64
		AgnosticPower float64
		ExactPower    float64
	}
	// EvaluatorVsEvaluator compares proposed vs flat on an LTI chain where
	// both are exact under PQN (they must agree to near machine
	// precision).
	FlatAgreement float64 // |psd - flat| / flat
}

// Ablation runs both studies at the given scale.
func Ablation(opt Options) (*AblationResult, error) {
	opt = opt.withDefaults()
	res := &AblationResult{}

	// 1. tau_eval scaling on the Fig. 3 graph.
	g, err := systems.NewDWT().Graph(16)
	if err != nil {
		return nil, err
	}
	for n := 64; n <= 4096; n *= 2 {
		t, err := timeEvaluate(g, n)
		if err != nil {
			return nil, err
		}
		res.Scaling = append(res.Scaling, struct {
			NPSD int
			Time time.Duration
		}{NPSD: n, Time: t})
	}

	// 2. Coherent recombination: +1/-1 parallel paths cancel exactly.
	cg := cancellingGraph()
	prop, err := core.NewPSDEvaluator(256).Evaluate(cg)
	if err != nil {
		return nil, err
	}
	agn, err := core.NewAgnosticEvaluator(256).Evaluate(cg)
	if err != nil {
		return nil, err
	}
	res.Recombination.ProposedPower = prop.Power
	res.Recombination.AgnosticPower = agn.Power
	res.Recombination.ExactPower = 0

	// 3. Flat agreement on a single LTI block.
	sf := &systems.SingleFilter{Filt: mustBankFilter()}
	lg, err := sf.Graph(FracDefault)
	if err != nil {
		return nil, err
	}
	p, err := core.NewPSDEvaluator(1024).Evaluate(lg)
	if err != nil {
		return nil, err
	}
	f, err := core.NewFlatEvaluator().Evaluate(lg)
	if err != nil {
		return nil, err
	}
	res.FlatAgreement = stats.Ed(f.Power, p.Power)
	return res, nil
}

// Render writes the ablation report.
func (r *AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "ABLATIONS\n")
	fmt.Fprintf(w, "A1: tau_eval versus N_PSD on the DWT graph (linear-complexity claim)\n")
	var prev time.Duration
	for _, p := range r.Scaling {
		ratio := ""
		if prev > 0 {
			ratio = fmt.Sprintf("  (x%.2f)", float64(p.Time)/float64(prev))
		}
		fmt.Fprintf(w, "  N_PSD %5d: %12v%s\n", p.NPSD, p.Time, ratio)
		prev = p.Time
	}
	fmt.Fprintf(w, "A2: cancelling reconvergent paths (exact output power = 0)\n")
	fmt.Fprintf(w, "  proposed (coherent): %.3g\n", r.Recombination.ProposedPower)
	fmt.Fprintf(w, "  agnostic (power-domain): %.3g  <- cannot see the cancellation\n",
		r.Recombination.AgnosticPower)
	fmt.Fprintf(w, "A3: proposed vs flat on a single LTI block: relative deviation %.2e (paper: strictly equivalent)\n",
		r.FlatAgreement)
}

func cancellingGraph() *coreGraph {
	g := newCoreGraph()
	in := g.Input("in")
	gp := g.Gain("pos", 1)
	gm := g.Gain("neg", -1)
	a := g.Adder("sum")
	out := g.Output("out")
	g.Connect(in, gp)
	g.Connect(in, gm)
	g.Connect(gp, a)
	g.Connect(gm, a)
	g.Connect(a, out)
	g.SetNoise(in, noiseSource("in.q"))
	return g
}

// coreGraph aliases sfg.Graph for local readability.
type coreGraph = sfg.Graph

func newCoreGraph() *coreGraph { return sfg.New() }

func noiseSource(name string) qnoise.Source {
	return qnoise.Source{Name: name, Mode: systems.Mode, Frac: FracDefault}
}

// mustBankFilter returns one representative Table-I bank member.
func mustBankFilter() filter.Filter {
	bank, err := filter.BuildFIRBank(filter.DefaultFIRBank())
	if err != nil {
		panic(err)
	}
	return bank[0]
}
