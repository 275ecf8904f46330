package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/api"
)

// simulatedAnswers is how many distinct answers per run are re-simulated
// with fxsim.
const simulatedAnswers = 3

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	binDir   string
	runDir   string // removed when the run ends
	traceDir string // span files, kept
}

// runResult is everything one run measured.
type runResult struct {
	cfg     runConfig
	setups  []float64 // seconds per boot+prime
	samples []sample
	bad     []bool // wrong answers, by sample position
	// phase runs from the first job's due time to the last answer.
	phase         time.Duration
	procs         []*daemon
	before, after tierSnapshot
	genCPUms      float64
	// stealShare is the host's CPU time a hypervisor gave to other guests
	// during the timed phase, which slows the tier and the generator alike.
	stealShare   float64
	check        checkReport
	firstErr     string
	spansPerJob  []float64 // span counts of sampled jobs' program traces
	primeDigests []string
	perLayer     []metric
	spanFile     string
}

// workloadInputs generates a workload's inputs from the seed: the priming
// requests, the job sequence, and how the timed phase drives them.
type workloadInputs struct {
	prime []job
	jobAt func(int) job
	drive func(ctx context.Context, cl *api.Client) []sample
}

func inputs(cfg runConfig) (workloadInputs, error) {
	dur := time.Duration(cfg.seconds) * time.Second
	switch cfg.workload {
	case "explore":
		specs := exploreSpecs(cfg.seed)
		w := workloadInputs{jobAt: func(i int) job { return exploreJob(specs, cfg.seed, i) }}
		for i := range specs {
			w.prime = append(w.prime, explorePrime(specs, i))
		}
		w.drive = func(ctx context.Context, cl *api.Client) []sample {
			return closedLoop(ctx, cl, exploreClients, dur, w.jobAt)
		}
		return w, nil
	case "ingest":
		// The traced ladder replays a prefix of the sequence, which a
		// short timed phase may not reach.
		sent := int(ingestRate * float64(cfg.seconds))
		jobs := ingestJobs(cfg.seed, max(sent, ladderJobs[cfg.workload]))
		return workloadInputs{
			prime: []job{ingestPrime(cfg.seed)},
			jobAt: func(i int) job { return jobs[i] },
			drive: func(ctx context.Context, cl *api.Client) []sample { return openLoop(ctx, cl, jobs[:sent], ingestRate) },
		}, nil
	case "hits":
		keys, err := hitsKeySet(cfg.seed)
		if err != nil {
			return workloadInputs{}, err
		}
		sent := int(hitsRate * float64(cfg.seconds))
		jobs := hitsJobs(cfg.seed, max(sent, ladderJobs[cfg.workload]), keys)
		return workloadInputs{
			prime: keys,
			jobAt: func(i int) job { return jobs[i] },
			drive: func(ctx context.Context, cl *api.Client) []sample { return openLoop(ctx, cl, jobs[:sent], hitsRate) },
		}, nil
	}
	return workloadInputs{}, fmt.Errorf("unknown workload %q", cfg.workload)
}

// prime submits every priming request, one per connection at a time, and
// waits for all of them; any failure aborts the run.
func prime(ctx context.Context, cl *api.Client, jobs []job) error {
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := runJob(ctx, cl, jobs[i], time.Now())
				if !s.ok() {
					errs[i] = fmt.Errorf("priming job %d failed: %v", i, jobErr(s))
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// jobErr describes why a job did not finish.
func jobErr(s sample) string {
	switch {
	case s.err != nil:
		return s.err.Error()
	case s.info == nil:
		return "no answer"
	default:
		return fmt.Sprintf("state %s %s %s", s.info.State, s.info.ErrorCode, s.info.Error)
	}
}

// runWorkload boots and primes the tier setupBoots times, drives the last
// tier through the timed phase, samples the processes and counters around
// it, stops the tier and checks every answer.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	in, err := inputs(cfg)
	if err != nil {
		return nil, err
	}
	r := &runResult{cfg: cfg}
	for _, j := range in.prime {
		sp, err := jobSpec(j)
		if err != nil {
			return nil, err
		}
		d, err := sp.Digest()
		if err != nil {
			return nil, err
		}
		r.primeDigests = append(r.primeDigests, d)
	}
	var t *tier
	defer func() {
		if t != nil {
			t.stop()
		}
	}()
	for boot := 0; boot < setupBoots; boot++ {
		if t != nil {
			t.stop()
			if t.storeDir != "" {
				os.RemoveAll(t.storeDir)
			}
		}
		start := time.Now()
		if t, err = startTier(ctx, cfg.workload, cfg.binDir, cfg.runDir, boot); err != nil {
			return nil, err
		}
		if err := prime(ctx, newClient(t.front.url), in.prime); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
	}
	r.procs = t.procs
	cl := newClient(t.front.url)
	r.before = t.snapshot(ctx)
	gen0, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	// No job may hang the run: the open loops finish sending within the
	// phase, so a minute past it every answer is long overdue.
	dctx, cancel := context.WithTimeout(ctx, time.Duration(cfg.seconds)*time.Second+time.Minute)
	r.samples = in.drive(dctx, cl)
	cancel()
	if ctx.Err() != nil {
		return nil, ctx.Err() // interrupted: no result
	}
	gen1, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	r.stealShare = float64(host1.steal-host0.steal) / float64(max(1, host1.total-host0.total))
	r.after = t.snapshot(ctx)
	r.genCPUms = gen1.cpuMS - gen0.cpuMS
	if errs := append(r.before.readErrs, r.after.readErrs...); len(errs) > 0 {
		return nil, fmt.Errorf("sampling the tier: %w", errors.Join(errs...))
	}
	if len(r.samples) == 0 {
		return nil, fmt.Errorf("no job was sent")
	}
	first, last := r.samples[0].sched, r.samples[0].end
	for _, s := range r.samples {
		if s.sched.Before(first) {
			first = s.sched
		}
		if s.end.After(last) {
			last = s.end
		}
		if !s.ok() && r.firstErr == "" {
			r.firstErr = jobErr(s)
		}
	}
	r.phase = last.Sub(first)
	if cfg.traced {
		r.spansPerJob = programSpans(ctx, cl, r.samples)
	}
	t.stop()
	t = nil

	r.check, r.bad = checkAnswers(r.samples, in.jobAt, cfg.seed, simulatedAnswers)
	if cfg.traced {
		if err := r.traceLayers(ctx, in); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// programSpans fetches the program's own trace of up to eight of the last
// jobs that ran (the recorders keep recent traces only) and returns each
// one's span count.
func programSpans(ctx context.Context, cl *api.Client, samples []sample) []float64 {
	var out []float64
	for i := len(samples) - 1; i >= 0 && len(out) < 8; i-- {
		s := samples[i]
		if !s.ok() || s.info.CacheHit {
			continue
		}
		in, err := cl.JobTrace(ctx, s.info.ID)
		if err != nil {
			continue
		}
		out = append(out, float64(len(in.Spans)))
	}
	return out
}
