// Package suite runs the full-registry scenario sweep: every system in the
// systems registry crossed with every registered word-length search
// strategy crossed with a grid of noise budgets, executed across a worker
// pool, producing a machine-readable report plus a rendered table. It is
// the harness that keeps every optimizer honest on every workload — a new
// System or a new Strategy is picked up automatically on registration —
// and the artifact CI archives per PR to track search quality over time.
//
// Budgets are expressed as uniform probe widths rather than absolute
// powers: the budget of a cell is the output noise power of the system
// with every source at the probe width, so the same grid is meaningful
// across systems whose absolute noise levels differ by orders of
// magnitude, and every cell is feasible by construction.
package suite

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/systems"
	"repro/internal/wlopt"
)

// Config parameterizes the sweep.
type Config struct {
	// NPSD is the evaluation engine's bin count; <= 0 selects 256
	// (128 under Short).
	NPSD int
	// MinFrac / MaxFrac bound every cell's search range; zero values
	// select 4 and 16 (12 under Short).
	MinFrac, MaxFrac int
	// BudgetWidths are the uniform probe widths defining the budget grid;
	// empty selects {8, 10, 12} ({10} under Short). Each width must lie
	// inside (MinFrac, MaxFrac].
	BudgetWidths []int
	// Strategies names the search strategies to run; empty selects every
	// registered strategy.
	Strategies []string
	// Specs adds user-provided system specs to the sweep alongside the
	// registry (cmd/suite -spec). Each must be a validated spec (Parse
	// guarantees it) with at least one noise source.
	Specs []*spec.Spec
	// Workers bounds the number of cells in flight; <= 0 selects
	// runtime.GOMAXPROCS(0). Cell results are identical for every pool
	// width — only wall-clock time changes.
	Workers int
	// Seed seeds the randomized strategies.
	Seed int64
	// Short shrinks the sweep to one budget per pair at reduced scale —
	// the CI smoke configuration: every system x strategy pair still
	// executes exactly once.
	Short bool
}

func (c Config) withDefaults() Config {
	if c.NPSD <= 0 {
		c.NPSD = 256
		if c.Short {
			c.NPSD = 128
		}
	}
	if c.MinFrac == 0 {
		c.MinFrac = 4
	}
	if c.MaxFrac == 0 {
		c.MaxFrac = 16
		if c.Short {
			c.MaxFrac = 12
		}
	}
	if len(c.BudgetWidths) == 0 {
		c.BudgetWidths = []int{8, 10, 12}
		if c.Short {
			c.BudgetWidths = []int{10}
		}
	}
	if len(c.Strategies) == 0 {
		c.Strategies = wlopt.Strategies()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) validate() error {
	if c.MinFrac < 1 || c.MaxFrac <= c.MinFrac || c.MaxFrac > 48 {
		return fmt.Errorf("suite: bad width bounds [%d, %d]", c.MinFrac, c.MaxFrac)
	}
	for _, w := range c.BudgetWidths {
		if w <= c.MinFrac || w > c.MaxFrac {
			return fmt.Errorf("suite: budget width %d outside (%d, %d]", w, c.MinFrac, c.MaxFrac)
		}
	}
	for _, name := range c.Strategies {
		if _, ok := wlopt.Lookup(name); !ok {
			known := wlopt.Strategies()
			sort.Strings(known)
			return fmt.Errorf("suite: unknown strategy %q (registered: %v)", name, known)
		}
	}
	for i, sp := range c.Specs {
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("suite: spec %d: %w", i, err)
		}
		sources := 0
		for j := range sp.Nodes {
			if sp.Nodes[j].Noise != nil {
				sources++
			}
		}
		if sources == 0 {
			return fmt.Errorf("suite: spec %d (%q) has no noise sources", i, sp.Name)
		}
	}
	return nil
}

// Cell is one (system, strategy, budget) outcome.
type Cell struct {
	System      string  `json:"system"`
	Strategy    string  `json:"strategy"`
	BudgetWidth int     `json:"budget_width"`
	Budget      float64 `json:"budget"`
	Cost        float64 `json:"cost"`
	UniformCost float64 `json:"uniform_cost"`
	Power       float64 `json:"power"`
	Sources     int     `json:"sources"`
	Evaluations int     `json:"evaluations"`
	// Digest is the system's spec content hash at the sweep's MaxFrac —
	// the same identity the optimization service caches on, so suite rows
	// and service jobs are joinable.
	Digest string `json:"digest,omitempty"`
	// EvalMode reports the engine path the cell's oracle settled on:
	// "cached" (transfer-cache multiply-accumulate + delta moves) or
	// "full" (per-source propagation fallback).
	EvalMode string `json:"eval_mode,omitempty"`
	// OptMS is the wall time of the search itself (oracle calls included,
	// graph construction excluded); WallMS is the whole cell.
	OptMS  float64 `json:"opt_ms"`
	WallMS float64 `json:"wall_ms"`
	Err    string  `json:"error,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Schema       string   `json:"schema"`
	NPSD         int      `json:"npsd"`
	MinFrac      int      `json:"min_frac"`
	MaxFrac      int      `json:"max_frac"`
	BudgetWidths []int    `json:"budget_widths"`
	Workers      int      `json:"workers"`
	Seed         int64    `json:"seed"`
	Short        bool     `json:"short"`
	Systems      []string `json:"systems"`
	Strategies   []string `json:"strategies"`
	Cells        []Cell   `json:"cells"`
}

// Failures counts cells that errored.
func (r *Report) Failures() int {
	n := 0
	for _, c := range r.Cells {
		if c.Err != "" {
			n++
		}
	}
	return n
}

// WriteJSON marshals the report, indented, with a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// Run executes the sweep. Cells are independent and fan out across
// cfg.Workers goroutines; the report lists them in deterministic
// (system, budget, strategy) order regardless of the pool width, and a
// cell failure is recorded in its Err field rather than aborting the rest
// of the sweep.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	registry, err := systems.Registry()
	if err != nil {
		return nil, err
	}
	for _, sp := range cfg.Specs {
		registry = append(registry, systems.FromSpec(sp))
	}
	rep := &Report{
		Schema:       "repro/suite/v3",
		NPSD:         cfg.NPSD,
		MinFrac:      cfg.MinFrac,
		MaxFrac:      cfg.MaxFrac,
		BudgetWidths: cfg.BudgetWidths,
		Workers:      cfg.Workers,
		Seed:         cfg.Seed,
		Short:        cfg.Short,
		Strategies:   cfg.Strategies,
	}
	for _, sys := range registry {
		rep.Systems = append(rep.Systems, sys.Name())
	}

	// Probe each system's budget grid once: the budget of width w is the
	// noise power of the uniform-w assignment.
	type job struct {
		sys         systems.System
		strategy    string
		budgetWidth int
		budget      float64
		digest      string
	}
	var jobs []job
	for _, sys := range registry {
		g, err := sys.Graph(cfg.MaxFrac)
		if err != nil {
			return nil, fmt.Errorf("suite: %s graph: %w", sys.Name(), err)
		}
		// The digest ties the row to the service's content-addressed job
		// identity; a system that cannot be expressed as a spec (custom
		// nodes) simply reports none.
		var digest string
		if sp, err := systems.SpecFor(sys, cfg.MaxFrac); err == nil {
			if d, err := sp.Digest(); err == nil {
				digest = d
			}
		}
		eng := core.NewEngine(cfg.NPSD, 1)
		for _, w := range cfg.BudgetWidths {
			probe, err := eng.EvaluateAssignment(g, core.UniformAssignment(g.NoiseSources(), w))
			if err != nil {
				return nil, fmt.Errorf("suite: %s budget probe at %d bits: %w", sys.Name(), w, err)
			}
			for _, strategy := range cfg.Strategies {
				jobs = append(jobs, job{sys: sys, strategy: strategy, budgetWidth: w, budget: probe.Power, digest: digest})
			}
		}
	}

	rep.Cells = make([]Cell, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for i, jb := range jobs {
		wg.Add(1)
		go func(i int, jb job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rep.Cells[i] = runCell(jb.sys, jb.strategy, jb.budgetWidth, jb.budget, jb.digest, cfg)
		}(i, jb)
	}
	wg.Wait()
	return rep, nil
}

func runCell(sys systems.System, strategy string, budgetWidth int, budget float64, digest string, cfg Config) (cell Cell) {
	cell = Cell{
		System:      sys.Name(),
		Strategy:    strategy,
		BudgetWidth: budgetWidth,
		Budget:      budget,
		Digest:      digest,
	}
	start := time.Now()
	defer func() { cell.WallMS = float64(time.Since(start).Microseconds()) / 1e3 }()
	g, err := sys.Graph(cfg.MaxFrac)
	if err != nil {
		cell.Err = err.Error()
		return cell
	}
	eng := core.NewEngine(cfg.NPSD, 1)
	optStart := time.Now()
	res, err := wlopt.RunStrategy(g, strategy, wlopt.Options{
		Budget:    budget,
		MinFrac:   cfg.MinFrac,
		MaxFrac:   cfg.MaxFrac,
		Evaluator: eng,
		Seed:      cfg.Seed,
	})
	cell.OptMS = float64(time.Since(optStart).Microseconds()) / 1e3
	if mode, merr := eng.EvalMode(g); merr == nil {
		cell.EvalMode = mode
	}
	if err != nil {
		cell.Err = err.Error()
		return cell
	}
	cell.Cost = res.Cost
	cell.UniformCost = res.UniformCost
	cell.Power = res.Power
	cell.Sources = len(res.Fracs)
	cell.Evaluations = res.Evaluations
	return cell
}

// Render writes the sweep as a table grouped by system.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "SUITE: %d systems x %d strategies x %d budgets (N_PSD=%d, widths [%d, %d], %d workers)\n",
		len(r.Systems), len(r.Strategies), len(r.BudgetWidths), r.NPSD, r.MinFrac, r.MaxFrac, r.Workers)
	fmt.Fprintf(w, "%-20s %-8s %4s %12s %8s %8s %7s %-6s %9s %9s %-10s %s\n",
		"system", "strategy", "b@d", "budget", "cost", "uniform", "evals", "mode", "opt", "wall", "digest", "status")
	prev := ""
	for _, c := range r.Cells {
		if c.System != prev && prev != "" {
			fmt.Fprintln(w)
		}
		prev = c.System
		status := "ok"
		if c.Err != "" {
			status = "FAIL: " + c.Err
		}
		fmt.Fprintf(w, "%-20s %-8s %4d %12.3g %8.0f %8.0f %7d %-6s %8.1fms %8.1fms %-10s %s\n",
			c.System, c.Strategy, c.BudgetWidth, c.Budget, c.Cost, c.UniformCost,
			c.Evaluations, c.EvalMode, c.OptMS, c.WallMS, shortDigest(c.Digest), status)
	}
	if n := r.Failures(); n > 0 {
		fmt.Fprintf(w, "\n%d/%d cells FAILED\n", n, len(r.Cells))
	}
}

// shortDigest abbreviates "sha256:<64 hex>" to its first 8 digits for the
// table; the JSON report carries the full hash.
func shortDigest(d string) string {
	const prefix = "sha256:"
	if len(d) > len(prefix)+8 {
		return d[len(prefix) : len(prefix)+8]
	}
	return d
}
