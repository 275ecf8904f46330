package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/api"
)

// tierLayers derives the per-layer metrics measured from outside the real
// tier: generator timing, wire round trips, job timestamps, /healthz and
// /metrics counter deltas, and /proc readings.
func (r *runResult) tierLayers() []metric {
	ok := r.okSamples()
	n := float64(max(1, len(ok)))
	var lags, submits, watches, events, qwait, runs []float64
	queueFull := 0
	for _, s := range r.samples {
		if !s.sent.IsZero() {
			lags = append(lags, ms(s.sent.Sub(s.sched)))
		}
		submits = append(submits, ms(s.submitRT))
		if s.watch > 0 {
			watches = append(watches, ms(s.watch))
			events = append(events, float64(s.events))
		}
		var apiErr *api.Error
		if errors.As(s.err, &apiErr) && apiErr.Code == api.CodeQueueFull {
			queueFull++
		}
		if s.ok() && !s.info.CacheHit && s.info.Started != nil && s.info.Finished != nil {
			qwait = append(qwait, ms(s.info.Started.Sub(s.info.Submitted)))
			runs = append(runs, ms(s.info.Finished.Sub(*s.info.Started)))
		}
	}
	lag, wait, qw := newDist(lags), newDist(watches), newDist(qwait)
	out := []metric{
		r.latP99(),
		pct("gen.lag_p99_ms", "ms", lag, 0.99, "submit got its connection minus its due time"),
		{name: "gen.cpu_ms_per_job", unit: "ms", value: r.genCPUms / float64(len(r.samples)), base: fmt.Sprintf("generator CPU %.0f ms over %d attempted", r.genCPUms, len(r.samples))},
		pct("api.submit_ms", "ms", newDist(submits), 0.5, "POST /v1/jobs round trip"),
		pct("service.queue_wait_ms_p50", "ms", qw, 0.5, "JobInfo Started - Submitted of non-hit jobs"),
		pct("service.queue_wait_ms_p99", "ms", qw, 0.99, "JobInfo Started - Submitted of non-hit jobs"),
		pct("service.run_ms", "ms", newDist(runs), 0.5, "JobInfo Finished - Started of non-hit jobs"),
	}
	if len(watches) > 0 {
		out = append(out,
			pct("api.watch_ms", "ms", wait, 0.5, "SSE watch of 202'd jobs"),
			metric{name: "api.events_per_job", unit: "count", value: newDist(events).mean(), base: fmt.Sprintf("mean over %d 202'd jobs", len(events))})
	} else {
		out = append(out, unmeasured("api.watch_ms", "ms", "no job needed a watch"), unmeasured("api.events_per_job", "count", "no job needed a watch"))
	}

	// Backend counters over the timed phase.
	var submitted, hits, builds, sheds, totalBuilds float64
	for i := range r.before.health {
		b, a := r.before.health[i].Stats, r.after.health[i].Stats
		if a == nil || b == nil {
			continue
		}
		submitted += float64(a.Submitted - b.Submitted)
		hits += float64(a.CacheHits - b.CacheHits)
		builds += float64(a.PlanBuilds - b.PlanBuilds)
		sheds += float64(a.DeadlineExpired - b.DeadlineExpired + a.PromotionsShed - b.PromotionsShed)
		totalBuilds += float64(a.PlanBuilds)
	}
	digests := r.distinctDigests()
	out = append(out,
		metric{name: "service.cache_hit_share", unit: "share", value: hits / math.Max(1, submitted), base: fmt.Sprintf("%.0f cache hits of %.0f submitted", hits, submitted)},
		metric{name: "service.plan_builds", unit: "count", value: builds, base: fmt.Sprintf("over %d timed jobs", len(r.samples))},
		metric{name: "service.sheds", unit: "count", value: sheds + float64(queueFull), base: fmt.Sprintf("queue_full %d + deadline + promotion, over %d timed jobs", queueFull, len(r.samples))},
		metric{name: "router.extra_plan_builds", unit: "count", value: totalBuilds - float64(digests), base: fmt.Sprintf("%.0f plan builds over all backends for %d distinct digests", totalBuilds, digests)},
	)
	if r.cfg.workload == "hits" {
		spills := metricSum(r.after.metrics, "wloptr_spills_total") - metricSum(r.before.metrics, "wloptr_spills_total")
		retries := metricSum(r.after.metrics, "wloptr_proxy_retries_total") - metricSum(r.before.metrics, "wloptr_proxy_retries_total")
		out = append(out,
			metric{name: "router.spills", unit: "count", value: spills, base: fmt.Sprintf("over %d timed jobs", len(r.samples))},
			metric{name: "router.proxy_retries", unit: "count", value: retries, base: fmt.Sprintf("over %d timed jobs", len(r.samples))})
	} else {
		out = append(out, unmeasured("router.spills", "count", "no router on this workload"), unmeasured("router.proxy_retries", "count", "no router on this workload"))
	}
	if len(r.spansPerJob) > 0 {
		out = append(out, metric{name: "trace.spans_per_job", unit: "count", value: newDist(r.spansPerJob).mean(), base: fmt.Sprintf("mean over %d jobs' GET /v1/jobs/{id}/trace", len(r.spansPerJob))})
	} else {
		out = append(out, unmeasured("trace.spans_per_job", "count", "no non-hit job's trace was retained"))
	}

	// Processes.
	for _, name := range []string{"wloptd", "wloptr"} {
		cpu, rss, count := 0.0, 0.0, 0
		for _, d := range r.procs {
			if d.name == name {
				cpu += r.after.proc[d.url].cpuMS - r.before.proc[d.url].cpuMS
				rss += r.after.proc[d.url].hwmMB
				count++
			}
		}
		if count == 0 {
			out = append(out, unmeasured(name+".cpu_ms_per_job", "ms", "no "+name+" on this workload"), unmeasured(name+".rss_mb", "MB", "no "+name+" on this workload"))
			continue
		}
		out = append(out,
			metric{name: name + ".cpu_ms_per_job", unit: "ms", value: cpu / n, base: fmt.Sprintf("%.0f ms over %d jobs, %d process(es)", cpu, len(ok), count)},
			metric{name: name + ".rss_mb", unit: "MB", value: rss, base: fmt.Sprintf("VmHWM summed over %d process(es)", count)})
	}
	if r.check.edN > 0 {
		out = append(out, metric{name: "fxsim.ed_abs_max_pct", unit: "%", value: r.check.edAbsMaxPct, base: fmt.Sprintf("max |Ed| over %d re-simulated answers, %d samples each", r.check.edN, fxsimSamples)})
	} else {
		out = append(out, unmeasured("fxsim.ed_abs_max_pct", "%", "no answer was re-simulated"))
	}
	return out
}

// pct reports a percentile with its sample count and support.
func pct(name, unit string, d dist, q float64, what string) metric {
	if len(d) == 0 {
		return unmeasured(name, unit, "no samples of "+what)
	}
	base := fmt.Sprintf("%s; %d samples", what, len(d))
	if q > 0.5 {
		base += fmt.Sprintf(", %d beyond", beyond(len(d), q))
		if beyond(len(d), q) < 10 {
			base += " (fewer than 10: not supported)"
		}
	}
	return metric{name: name, unit: unit, value: d.p(q), base: base}
}

// distinctDigests counts the systems the run asked the tier about.
func (r *runResult) distinctDigests() int {
	seen := map[string]bool{}
	for _, s := range r.samples {
		if s.info != nil {
			seen[s.info.Digest] = true
		}
	}
	for _, d := range r.primeDigests {
		seen[d] = true
	}
	return len(seen)
}

// metrics derives the per-layer metrics of the in-process ladder.
func (l *ladder) metrics() []metric {
	rc, lr := l.rec, l.lib
	jobP50 := func(rung string) (float64, int) {
		d := durations(rc.find(rung, "job", true), time.Microsecond)
		return d.p(0.5), len(d)
	}
	lib, n := jobP50("lib")
	svc, _ := jobP50("service")
	h, _ := jobP50("http")
	ht, _ := jobP50("http-traced")
	diff := func(name string, hi, lo float64, hiRung, loRung string) metric {
		return metric{name: name, unit: "us", value: hi - lo, base: fmt.Sprintf("p50 job latency of rung %s %.1f us - rung %s %.1f us, %d jobs each", hiRung, hi, loRung, lo, n)}
	}
	out := []metric{
		diff("service.submit_us", svc, lib, "service", "lib"),
		diff("api.http_us", h, svc, "http", "service"),
		{name: "trace.overhead_pct", unit: "%", value: 100 * (ht - h) / h, base: fmt.Sprintf("p50 job latency with program tracing %.1f us vs without %.1f us (http rung)", ht, h)},
	}
	if l.cfg.workload == "hits" {
		rt, _ := jobP50("router")
		out = append(out, diff("router.hop_us", rt, h, "router", "http"))
	} else {
		out = append(out, unmeasured("router.hop_us", "us", "the router rung runs on hits only"))
	}

	libSpans := func(name string, unit time.Duration) dist { return durations(rc.find("lib", name, false), unit) }
	var cold []span
	for _, s := range rc.find("lib", "Engine.EnsurePlan", false) {
		if s.Note == "cold" {
			cold = append(cold, s)
		}
	}
	searches := float64(max(1, lr.searches))
	var moveNS int64
	for _, s := range rc.find("lib", "Engine.PowerMoves", true) {
		moveNS += s.dur()
	}
	children := map[int][]span{}
	for _, s := range rc.spans {
		if s.Rung == "lib" && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	search := rc.find("lib", "wlopt.RunStrategy", true)
	self := make([]float64, len(search))
	for i, s := range search {
		self[i] = float64(selfTime(s, children[s.ID])) / float64(time.Millisecond)
	}
	searchBase := fmt.Sprintf("%d searches in the lib rung", lr.searches)
	puts := libSpans("store.Put", time.Millisecond)
	out = append(out,
		pct("spec.parse_ms", "ms", libSpans("spec.Parse", time.Millisecond), 0.5, "spec.Parse"),
		pct("spec.digest_ms", "ms", libSpans("Spec.Digest", time.Millisecond), 0.5, "Spec.Digest"),
		pct("spec.build_ms", "ms", libSpans("Spec.Build", time.Millisecond), 0.5, "Spec.Build"),
		pct("core.plan_build_ms", "ms", durations(cold, time.Millisecond), 0.5, "cold Engine.EnsurePlan"),
		pct("core.budget_probe_us", "us", libSpans("Engine.EvaluateAssignment", time.Microsecond), 0.5, "Engine.EvaluateAssignment"),
		metric{name: "core.moves_per_job", unit: "count", value: float64(lr.moves) / searches, base: searchBase},
		metric{name: "core.ns_per_move", unit: "ns", value: float64(moveNS) / float64(max(1, lr.moves)), base: fmt.Sprintf("Engine.PowerMoves time over %d moves", lr.moves)},
		metric{name: "core.tier2_calls_per_job", unit: "count", value: float64(lr.tier2Calls) / searches, base: searchBase + "; Engine.Evaluate + EvaluateBatch calls"},
		metric{name: "core.full_mode_share", unit: "share", value: float64(lr.full) / float64(max(1, lr.plans)), base: fmt.Sprintf("%d of %d plans on full propagation", lr.full, lr.plans)},
		metric{name: "core.snapshot_kb", unit: "KB", value: newDist(l.snapKB).mean(), base: fmt.Sprintf("mean gob size of the %d digests' SnapshotPlan results", len(l.snapKB))},
		pct("core.restore_plan_ms", "ms", libSpans("Engine.RestorePlan", time.Millisecond), 0.5, "Engine.RestorePlan"),
		pct("fft.real_forward_us", "us", libSpans("fft.Plan.RealForward", time.Microsecond), 0.5, fmt.Sprintf("fft.Plan.RealForward of %d samples", npsd)),
		pct("wlopt.search_ms", "ms", durations(search, time.Millisecond), 0.5, "wlopt.RunStrategy on a warm plan"),
		pct("wlopt.self_ms", "ms", newDist(self), 0.5, "wlopt.RunStrategy minus its Engine calls"),
		metric{name: "wlopt.evaluations", unit: "count", value: lr.evaluations / searches, base: searchBase + "; Result.Evaluations"},
		metric{name: "wlopt.steps", unit: "count", value: lr.steps / searches, base: searchBase + "; progress events"},
		metric{name: "wlopt.cost_bits", unit: "bits", value: lr.cost / searches, base: searchBase + "; Result.Cost"},
		pct("store.put_ms_p50", "ms", puts, 0.5, "store.Put of results and plan snapshots"),
		pct("store.put_ms_p99", "ms", puts, 0.99, "store.Put of results and plan snapshots"),
		pct("store.get_ms", "ms", libSpans("store.Get", time.Millisecond), 0.5, "store.Get of results and plan snapshots"),
		metric{name: "store.kb_per_job", unit: "KB", value: lr.storeKB / searches, base: fmt.Sprintf("lib-rung store growth of %.0f KB over %d timed jobs written through", lr.storeKB, lr.searches)},
	)
	return out
}
