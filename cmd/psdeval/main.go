// Command psdeval evaluates the output quantization-noise power of a
// fixed-point system described by a JSON spec — or any registry system by
// name — using all three analytical methods (proposed PSD, PSD-agnostic,
// flat) and an optional Monte-Carlo cross-check.
//
// Usage:
//
//	psdeval -spec system.json [-npsd 1024] [-simulate] [-samples 1000000]
//	psdeval -system dwt97(fig3) [-frac 12] [-mode full|cached]
//	psdeval -system dwt97(fig3) -store ~/.cache/wlopt   # warm plans across runs
//
// The -store flag points at the same content-addressed warm store wloptd
// uses: registry-system plans (transfer profiles + σ²-tables) restore from
// disk instead of being rebuilt, and fresh builds are written through for
// the next invocation (or for a daemon sharing the directory). It applies
// to -system runs in cached mode — block-spec files have no content digest
// to address by, and -mode full deliberately bypasses the cache the
// snapshots capture.
//
// The -mode flag selects the proposed method's evaluation path and makes
// the transfer-cache speedup measurable from the CLI: "full" forces the
// per-source propagation and "cached" (default) uses the plan's transfer
// profiles.
//
// Spec format (blocks are connected by "from" references; "adder" takes a
// list):
//
//	{
//	  "frac": 12,
//	  "blocks": [
//	    {"name": "in",  "type": "input", "quantize": true},
//	    {"name": "lp",  "type": "fir", "band": "lowpass", "taps": 33,
//	     "f1": 0.2, "from": "in", "quantize": true},
//	    {"name": "hp",  "type": "iir", "kind": "butterworth",
//	     "band": "highpass", "order": 4, "f1": 0.3, "from": "lp"},
//	    {"name": "out", "type": "output", "from": "hp"}
//	  ]
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/filter"
	"repro/internal/fxsim"
	"repro/internal/qnoise"
	"repro/internal/sfg"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/systems"
)

// blockSpec is one JSON block.
type blockSpec struct {
	Name     string    `json:"name"`
	Type     string    `json:"type"`
	From     []string  `json:"-"`
	FromRaw  any       `json:"from"`
	Quantize bool      `json:"quantize"`
	Band     string    `json:"band"`
	Kind     string    `json:"kind"`
	Taps     int       `json:"taps"`
	Order    int       `json:"order"`
	F1       float64   `json:"f1"`
	F2       float64   `json:"f2"`
	B        []float64 `json:"b"`
	A        []float64 `json:"a"`
	Gain     float64   `json:"gain"`
	Delay    int       `json:"delay"`
	Factor   int       `json:"factor"`
}

// systemSpec is the top-level JSON document.
type systemSpec struct {
	Frac   int         `json:"frac"`
	Blocks []blockSpec `json:"blocks"`
}

func main() {
	var (
		specPath = flag.String("spec", "", "path to the JSON system spec (this or -system is required)")
		sysName  = flag.String("system", "", "evaluate a registry system by name instead of a spec (see -list)")
		list     = flag.Bool("list", false, "list registry system names and exit")
		frac     = flag.Int("frac", 12, "uniform fractional width for -system graphs")
		mode     = flag.String("mode", core.EvalModeCached, "proposed-method evaluation path: full or cached")
		reps     = flag.Int("reps", 1, "repetitions of the proposed-method evaluation for the timing readout (raise for stable µs/eval numbers)")
		npsd     = flag.Int("npsd", 1024, "PSD bins")
		storeDir = flag.String("store", "", "persistent warm-store directory for -system plans (shared with wloptd); empty disables")
		simulate = flag.Bool("simulate", false, "run a Monte-Carlo cross-check")
		samples  = flag.Int("samples", 1<<20, "simulation sample count")
		seed     = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if *list {
		names, err := systems.RegistryNames()
		if err != nil {
			fmt.Fprintln(os.Stderr, "psdeval:", err)
			os.Exit(1)
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}
	if (*specPath == "") == (*sysName == "") {
		fmt.Fprintln(os.Stderr, "psdeval: exactly one of -spec and -system is required")
		flag.Usage()
		os.Exit(2)
	}
	switch *mode {
	case core.EvalModeFull, core.EvalModeCached:
	default:
		fmt.Fprintf(os.Stderr, "psdeval: unknown -mode %q (want full or cached)\n", *mode)
		os.Exit(2)
	}
	if *reps < 1 {
		*reps = 1
	}
	if err := run(*specPath, *sysName, *frac, *mode, *reps, *npsd, *storeDir, *simulate, *samples, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "psdeval:", err)
		os.Exit(1)
	}
}

// loadGraph materializes the evaluation graph from a spec file or a
// registry name, returning the graph, its nominal fractional width, and —
// for registry systems — the spec content digest that addresses its warm
// state in a -store directory (empty for block-spec files).
func loadGraph(specPath, sysName string, frac int) (*sfg.Graph, int, string, error) {
	if sysName != "" {
		reg, err := systems.Registry()
		if err != nil {
			return nil, 0, "", err
		}
		for _, sys := range reg {
			if sys.Name() == sysName {
				g, err := sys.Graph(frac)
				if err != nil {
					return nil, 0, "", err
				}
				sp, err := systems.SpecFor(sys, frac)
				if err != nil {
					return nil, 0, "", err
				}
				digest, err := sp.Digest()
				if err != nil {
					return nil, 0, "", err
				}
				return g, frac, digest, nil
			}
		}
		names, _ := systems.RegistryNames()
		return nil, 0, "", fmt.Errorf("unknown system %q (registry: %v)", sysName, names)
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return nil, 0, "", err
	}
	var spec systemSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, 0, "", fmt.Errorf("parsing %s: %w", specPath, err)
	}
	if spec.Frac <= 0 {
		spec.Frac = 12
	}
	g, err := buildGraph(&spec)
	return g, spec.Frac, "", err
}

func run(specPath, sysName string, frac int, mode string, reps, npsd int, storeDir string, simulate bool, samples int, seed int64) error {
	g, frac, digest, err := loadGraph(specPath, sysName, frac)
	if err != nil {
		return err
	}
	if g.HasCycle() {
		n, err := g.BreakLoops()
		if err != nil {
			return fmt.Errorf("breaking loops: %w", err)
		}
		fmt.Printf("broke %d feedback loop(s) via Mason reduction\n", n)
	}

	fmt.Printf("system: %d blocks, %d noise sources, d = %d fractional bits\n",
		len(g.Nodes()), len(g.NoiseSources()), frac)

	// The proposed method runs through the plan-cached engine on the
	// selected path; the plan is built (and, on "full", the transfer cache
	// bypassed) before timing starts.
	eng := core.NewEngine(npsd, 1)
	if mode == core.EvalModeFull {
		eng.SetFullPropagation(true)
	}
	var warm *store.Store
	if storeDir != "" && digest != "" && mode != core.EvalModeFull {
		if warm, err = store.Open(storeDir); err != nil {
			return err
		}
		warm.SetLogf(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "psdeval: "+format+"\n", args...)
		})
		var snap core.PlanSnapshot
		if warm.Get(store.KindPlan, store.PlanKey(digest, npsd), &snap) {
			if err := eng.RestorePlan(g, &snap); err != nil {
				// Shape mismatch is as good as corruption: rebuild below.
				warm.Delete(store.KindPlan, store.PlanKey(digest, npsd))
			} else {
				fmt.Printf("warm store: plan restored from %s (no propagation, no response sampling)\n", storeDir)
			}
		}
	}
	planMode, err := eng.EvalMode(g)
	if err != nil {
		return fmt.Errorf("planning: %w", err)
	}
	if warm != nil && eng.PlanRestores() == 0 && planMode == core.EvalModeCached {
		if snap, err := eng.SnapshotPlan(g); err == nil {
			if warm.Put(store.KindPlan, store.PlanKey(digest, npsd), snap) == nil {
				fmt.Printf("warm store: plan written through to %s\n", storeDir)
			}
		}
	}
	evalStart := time.Now()
	var psdRes *core.Result
	for i := 0; i < reps; i++ {
		if psdRes, err = eng.Evaluate(g); err != nil {
			return fmt.Errorf("proposed method: %w", err)
		}
	}
	perEval := time.Since(evalStart) / time.Duration(reps)
	fmt.Printf("%-16s power %.6g  (mean %.4g, variance %.4g)  [mode %s, %s/eval]\n",
		"psd", psdRes.Power, psdRes.Mean, psdRes.Variance, planMode, perEval.Round(time.Nanosecond))
	results := map[string]*core.Result{"psd": psdRes}

	evals := []core.Evaluator{core.NewAgnosticEvaluator(npsd)}
	if !g.IsMultirate() {
		evals = append(evals, core.NewFlatEvaluator())
	}
	for _, ev := range evals {
		res, err := ev.Evaluate(g)
		if err != nil {
			return fmt.Errorf("%s: %w", ev.Name(), err)
		}
		results[ev.Name()] = res
		fmt.Printf("%-16s power %.6g  (mean %.4g, variance %.4g)\n",
			ev.Name(), res.Power, res.Mean, res.Variance)
	}
	if simulate {
		sim, err := fxsim.Run(g, fxsim.Config{Samples: samples, Seed: seed})
		if err != nil {
			return fmt.Errorf("simulation: %w", err)
		}
		fmt.Printf("%-16s power %.6g ± %.2g  (SQNR %.1f dB, %d samples)\n",
			"simulation", sim.Power, sim.PowerSE, sim.SQNR(), sim.Samples)
		for name, res := range results {
			fmt.Printf("  Ed[%s] = %s ± %.2f%%\n", name, core.EdPercent(stats.Ed(sim.Power, res.Power)),
				100*stats.EdSE(sim.Power, sim.PowerSE, res.Power))
		}
	}
	// Per-source breakdown for the proposed method.
	fmt.Println("per-source contributions (proposed method):")
	for _, s := range psdRes.PerSource {
		fmt.Printf("  %-20s variance %.6g  mean %.4g\n", s.Name, s.Variance, s.Mean)
	}
	return nil
}

// buildGraph materializes the JSON spec.
func buildGraph(spec *systemSpec) (*sfg.Graph, error) {
	g := sfg.New()
	ids := map[string]sfg.NodeID{}
	// First pass: create nodes.
	for i := range spec.Blocks {
		b := &spec.Blocks[i]
		if b.Name == "" {
			return nil, fmt.Errorf("block %d has no name", i)
		}
		if _, dup := ids[b.Name]; dup {
			return nil, fmt.Errorf("duplicate block name %q", b.Name)
		}
		if err := parseFrom(b); err != nil {
			return nil, err
		}
		id, err := makeNode(g, b)
		if err != nil {
			return nil, fmt.Errorf("block %q: %w", b.Name, err)
		}
		ids[b.Name] = id
		if b.Quantize {
			g.SetNoise(id, qnoise.Source{Name: b.Name + ".q", Mode: systems.Mode, Frac: spec.Frac})
		}
	}
	// Second pass: connect.
	for i := range spec.Blocks {
		b := &spec.Blocks[i]
		for _, from := range b.From {
			src, ok := ids[from]
			if !ok {
				return nil, fmt.Errorf("block %q references unknown block %q", b.Name, from)
			}
			g.Connect(src, ids[b.Name])
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func parseFrom(b *blockSpec) error {
	switch v := b.FromRaw.(type) {
	case nil:
	case string:
		b.From = []string{v}
	case []any:
		for _, e := range v {
			s, ok := e.(string)
			if !ok {
				return fmt.Errorf("block %q: from entries must be strings", b.Name)
			}
			b.From = append(b.From, s)
		}
	default:
		return fmt.Errorf("block %q: bad from field", b.Name)
	}
	return nil
}

func makeNode(g *sfg.Graph, b *blockSpec) (sfg.NodeID, error) {
	switch b.Type {
	case "input":
		return g.Input(b.Name), nil
	case "output":
		return g.Output(b.Name), nil
	case "adder":
		return g.Adder(b.Name), nil
	case "gain":
		return g.Gain(b.Name, b.Gain), nil
	case "delay":
		return g.Delay(b.Name, b.Delay), nil
	case "down":
		return g.Down(b.Name, b.Factor), nil
	case "up":
		return g.Up(b.Name, b.Factor), nil
	case "fir":
		if len(b.B) > 0 {
			return g.Filter(b.Name, filter.NewFIR(b.B, b.Name)), nil
		}
		f, err := filter.DesignFIR(filter.FIRSpec{
			Band: parseBand(b.Band), Taps: b.Taps, F1: b.F1, F2: b.F2, Window: dsp.Hamming,
		})
		if err != nil {
			return 0, err
		}
		return g.Filter(b.Name, f), nil
	case "iir":
		if len(b.B) > 0 && len(b.A) > 0 {
			return g.Filter(b.Name, filter.Filter{B: b.B, A: b.A, Desc: b.Name}), nil
		}
		kind := filter.Butterworth
		if b.Kind == "chebyshev1" {
			kind = filter.Chebyshev1
		}
		f, err := filter.DesignIIR(filter.IIRSpec{
			Kind: kind, Band: parseBand(b.Band), Order: b.Order, F1: b.F1, F2: b.F2,
		})
		if err != nil {
			return 0, err
		}
		return g.Filter(b.Name, f), nil
	default:
		return 0, fmt.Errorf("unknown block type %q", b.Type)
	}
}

func parseBand(s string) filter.BandType {
	switch s {
	case "highpass":
		return filter.Highpass
	case "bandpass":
		return filter.Bandpass
	case "bandstop":
		return filter.Bandstop
	default:
		return filter.Lowpass
	}
}
