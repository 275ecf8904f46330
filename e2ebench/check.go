package main

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/fxsim"
	"repro/internal/sfg"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/systems"
	"repro/internal/wlopt"
)

// fxsimSamples is the stimulus length of each re-simulation; the sub-one-bit
// band is wide enough that Monte-Carlo error at this length is negligible.
const fxsimSamples = 1 << 15

// reqKey identifies a request's answer: the system plus the options
// fingerprint (the tier's cache key, spelled out).
func reqKey(j job) string {
	return j.system + "\x00" + string(j.specJSON) + "\x00" + j.opts.Fingerprint()
}

// jobSpec returns the spec a request names, exported the way the service
// exports registry systems (at the request's max_frac).
func jobSpec(j job) (*spec.Spec, error) {
	if j.specJSON != nil {
		return spec.Parse(j.specJSON)
	}
	reg, err := systems.Registry()
	if err != nil {
		return nil, err
	}
	for _, sys := range reg {
		if sys.Name() == j.system {
			return systems.SpecFor(sys, j.opts.WithDefaults().MaxFrac)
		}
	}
	return nil, fmt.Errorf("no registry system %q", j.system)
}

// answer is the reference answer to one request.
type answer struct {
	digest string
	res    *wlopt.Result
	budget float64
	mode   string
	ed     float64 // NaN unless re-simulated
	err    error
}

// budgetFor is the budget the service searches o under: o.Budget, or, when
// a budget width is set, the power of the uniform assignment at that width.
// o carries its defaults.
func budgetFor(eng *core.Engine, g *sfg.Graph, o spec.Options) (float64, error) {
	if o.BudgetWidth <= 0 {
		return o.Budget, nil
	}
	probe, err := eng.EvaluateAssignment(g, core.UniformAssignment(g.NoiseSources(), o.BudgetWidth))
	if err != nil {
		return 0, err
	}
	return probe.Power, nil
}

// search runs the service's search for o under budget, with ev as the
// evaluator. Both the answer check and the lib rung answer through
// budgetFor and search, so they cannot drift apart.
func search(g *sfg.Graph, o spec.Options, budget float64, ev core.Evaluator, progress func(wlopt.ProgressEvent)) (*wlopt.Result, error) {
	return wlopt.RunStrategy(g, o.Strategy, wlopt.Options{
		Budget: budget, MinFrac: o.MinFrac, MaxFrac: o.MaxFrac, CostPerBit: o.CostPerBit,
		Evaluator: ev, Seed: o.Seed, AnnealRounds: o.AnnealRounds, Progress: progress,
	})
}

// referee computes reference answers: spec.Parse, Digest, Build, a plan on
// its own engine, the budget probe and wlopt.RunStrategy, exactly the
// service's recipe, in process.
type referee struct {
	eng    *core.Engine
	graphs map[string]*sfg.Graph // one worker's graphs by spec
}

func (rf *referee) solve(j job, simSeed int64) answer {
	a := answer{ed: math.NaN()}
	sp, err := jobSpec(j)
	if err != nil {
		a.err = fmt.Errorf("parse: %w", err)
		return a
	}
	if a.digest, err = sp.Digest(); err != nil {
		a.err = fmt.Errorf("digest: %w", err)
		return a
	}
	g := rf.graphs[a.digest]
	if g == nil {
		if len(rf.graphs) >= 32 {
			clear(rf.graphs)
		}
		if g, err = sp.Build(); err != nil {
			a.err = fmt.Errorf("build: %w", err)
			return a
		}
		rf.graphs[a.digest] = g
	}
	if _, err := rf.eng.EnsurePlan(g); err != nil {
		a.err = fmt.Errorf("plan: %w", err)
		return a
	}
	a.mode, _ = rf.eng.EvalMode(g)
	o := j.opts.WithDefaults()
	if a.budget, err = budgetFor(rf.eng, g, o); err != nil {
		a.err = fmt.Errorf("budget probe: %w", err)
		return a
	}
	a.res, a.err = search(g, o, a.budget, rf.eng, nil)
	if a.err == nil && simSeed != 0 {
		// RunStrategy leaves g at the chosen assignment.
		sim, err := fxsim.Run(g, fxsim.Config{Samples: fxsimSamples, Seed: simSeed})
		if err != nil {
			a.err = fmt.Errorf("fxsim: %w", err)
			return a
		}
		a.ed = stats.Ed(sim.Power, a.res.Power)
	}
	return a
}

// checkReport summarizes the answer check of one run.
type checkReport struct {
	checked, wrong int
	firstWrong     string
	plans, full    int     // distinct systems planned; how many fell back to full propagation
	edAbsMaxPct    float64 // over the re-simulated sample
	edN            int
	genErr         error // a generated spec outside its family
}

// checkAnswers compares every finished job with the reference answer to
// its request and re-simulates a seeded sample of them. It marks wrong
// answers in bad (by sample position).
func checkAnswers(samples []sample, jobs func(int) job, seed int64, simulate int) (checkReport, []bool) {
	var rep checkReport
	bad := make([]bool, len(samples))
	// Distinct requests, in first-seen order, and the sampled subset.
	var order []string
	first := map[string]job{}
	for _, s := range samples {
		if !s.ok() {
			continue
		}
		j := jobs(s.idx)
		k := reqKey(j)
		if _, seen := first[k]; !seen {
			first[k] = j
			order = append(order, k)
		}
	}
	sim := map[string]int64{}
	r := newRand(seed, streamSample, 0)
	for _, i := range r.Perm(len(order))[:min(simulate, len(order))] {
		sim[order[i]] = int64(i) + 1
	}

	answers := make(map[string]answer, len(order))
	var mu sync.Mutex
	work := make(chan string)
	var wg sync.WaitGroup
	eng := core.NewEngine(npsd, 1)
	eng.SetPlanCacheCap(64)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rf := &referee{eng: eng, graphs: map[string]*sfg.Graph{}}
			for k := range work {
				a := rf.solve(first[k], sim[k])
				mu.Lock()
				answers[k] = a
				mu.Unlock()
			}
		}()
	}
	for _, k := range order {
		work <- k
	}
	close(work)
	wg.Wait()

	digests := map[string]bool{}
	for _, k := range order {
		a := answers[k]
		if a.err != nil {
			rep.genErr = fmt.Errorf("generated request does not solve in process: %w", a.err)
			continue
		}
		if !digests[a.digest] {
			digests[a.digest] = true
			rep.plans++
			if a.mode != "cached" {
				rep.full++
				rep.genErr = fmt.Errorf("generated system %s plans in %q mode, want cached", a.digest, a.mode)
			}
		}
		if !math.IsNaN(a.ed) {
			rep.edN++
			rep.edAbsMaxPct = math.Max(rep.edAbsMaxPct, 100*math.Abs(a.ed))
			if !stats.SubOneBit(a.ed) {
				rep.wrong++
				rep.firstWrong = fmt.Sprintf("re-simulated Ed %.1f%% outside the sub-one-bit band", 100*a.ed)
			}
		}
	}
	for i, s := range samples {
		if !s.ok() {
			continue
		}
		rep.checked++
		a := answers[reqKey(jobs(s.idx))]
		if a.err != nil {
			continue // reported as genErr
		}
		if why := compare(s, a); why != "" {
			bad[i] = true
			rep.wrong++
			if rep.firstWrong == "" {
				rep.firstWrong = fmt.Sprintf("job %s: %s", s.info.ID, why)
			}
		}
	}
	return rep, bad
}

// compare explains how a served answer differs from the reference, or
// returns "".
func compare(s sample, a answer) string {
	got := s.info.Result
	switch {
	case s.info.Digest != a.digest:
		return fmt.Sprintf("digest %s, want %s", s.info.Digest, a.digest)
	case got.Strategy != a.res.Strategy:
		return fmt.Sprintf("strategy %s, want %s", got.Strategy, a.res.Strategy)
	case !maps.Equal(got.Fracs, a.res.Fracs):
		return fmt.Sprintf("fracs %v, want %v", got.Fracs, a.res.Fracs)
	case math.Float64bits(got.Power) != math.Float64bits(a.res.Power):
		return fmt.Sprintf("power %v, want bit-identical %v", got.Power, a.res.Power)
	case math.Float64bits(s.info.Budget) != math.Float64bits(a.budget):
		return fmt.Sprintf("budget %v, want %v", s.info.Budget, a.budget)
	case !(got.Power <= a.budget):
		return fmt.Sprintf("power %v over budget %v", got.Power, a.budget)
	}
	return ""
}
