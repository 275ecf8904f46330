package main

import (
	"context"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/service"
)

// newClient targets url through a transport capped at nproc connections,
// the generator's share of the host.
func newClient(url string) *api.Client {
	n := runtime.NumCPU()
	return api.NewClient(url, &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}})
}

// sample is one job as the generator saw it.
type sample struct {
	idx int
	// sched is when the job was due: its slot in an open loop, or the
	// moment its client became free in a closed loop. Latency counts from
	// here, so a stalled generator or tier cannot hide queueing.
	sched time.Time
	// sent is when the submit request got a connection.
	sent     time.Time
	submitRT time.Duration
	watch    time.Duration // zero when the submit answered with the final state
	events   int
	end      time.Time
	info     *service.JobInfo
	err      error
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.sched) }

// ok reports whether the tier answered with a finished job; the answer
// check decides later whether the answer is right.
func (s *sample) ok() bool {
	return s.err == nil && s.info != nil && s.info.State == service.JobDone && s.info.Result != nil
}

// runJob submits one job and follows it to its final answer: a cache hit
// answers on the submit, anything else is watched over SSE to its terminal
// event and then fetched.
func runJob(ctx context.Context, cl *api.Client, j job, sched time.Time) sample {
	s := sample{sched: sched}
	tctx := httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) {
		if s.sent.IsZero() {
			s.sent = time.Now()
		}
	}})
	t0 := time.Now()
	info, _, err := cl.SubmitBody(tctx, j.body)
	s.submitRT = time.Since(t0)
	if err == nil && !info.State.Terminal() {
		w0 := time.Now()
		err = cl.Watch(ctx, info.ID, func(service.Event) bool { s.events++; return true })
		s.watch = time.Since(w0)
		if err == nil {
			info, err = cl.Job(ctx, info.ID)
		}
	}
	s.end, s.info, s.err = time.Now(), info, err
	return s
}

// closedLoop runs clients that each submit the next job as soon as their
// previous one finished, until dur has passed; jobs in flight at the end
// complete and count.
func closedLoop(ctx context.Context, cl *api.Client, clients int, dur time.Duration, next func(i int) job) []sample {
	var (
		mu      sync.Mutex
		samples []sample
		n       atomic.Int64
		wg      sync.WaitGroup
	)
	stop := time.Now().Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) && ctx.Err() == nil {
				i := int(n.Add(1) - 1)
				j := next(i)
				s := runJob(ctx, cl, j, time.Now())
				s.idx = i
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(samples, func(a, b int) bool { return samples[a].idx < samples[b].idx })
	return samples
}

// openLoop sends jobs[i] at start + i/rate whatever the tier's state, each
// on its own goroutine; the transport's connection cap is the only bound.
func openLoop(ctx context.Context, cl *api.Client, jobs []job, rate float64) []sample {
	samples := make([]sample, len(jobs))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range jobs {
		sched := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		if ctx.Err() != nil {
			samples[i] = sample{idx: i, sched: sched, end: time.Now(), err: ctx.Err()}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			samples[i] = runJob(ctx, cl, jobs[i], sched)
			samples[i].idx = i
		}(i)
	}
	wg.Wait()
	return samples
}
