package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/systems"
	"repro/internal/trace"
	"repro/internal/wlopt"
)

// Overload policy matrix, end to end: a saturated 2-backend cluster must
// degrade by policy, not by accident. A no-deadline job on a saturated
// owner spills after a bounded delay and comes back bit-identical from
// the cold backend; a short-deadline job queued behind a busy worker is
// answered deadline_exceeded before any search runs; a mid-deadline job
// gets a degraded best-so-far that is never cached; and a backend that
// probes healthy but fails traffic is offered a bounded share of it, then
// serves its shard again once it stops failing.

// newClusterMut is newCluster with a hook to adjust the router config
// before construction (spill policy, probe timing, fault transports).
func newClusterMut(t *testing.T, n int, cfg service.Config, mut func(*router.Config)) (*api.Client, *router.Router, []*backendFixture) {
	t.Helper()
	nodes := []string{"b1", "b2", "b3", "b4"}[:n]
	backends := make([]*backendFixture, n)
	urls := make([]string, n)
	for i, node := range nodes {
		backends[i] = newBackend(t, node, cfg)
		urls[i] = backends[i].url
	}
	rc := router.Config{
		Pool: router.PoolConfig{
			Backends:      urls,
			ProbeInterval: 20 * time.Millisecond,
			ProbeTimeout:  2 * time.Second,
			EjectAfter:    2,
		},
		Addr: "router:0",
	}
	if mut != nil {
		mut(&rc)
	}
	rt := router.New(rc)
	rt.Start()
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return api.NewClient(ts.URL), rt, backends
}

// ownerOf resolves which of two backends owns a system's shard, and which
// is the spill target — tests saturate the owner deterministically
// instead of depending on how the fixture URLs hashed onto the ring.
func ownerOf(t *testing.T, rt *router.Router, backends []*backendFixture, system string) (owner, other *backendFixture) {
	t.Helper()
	for _, addr := range rt.Pool().Ring().Seq("system:" + system) {
		for i, b := range backends {
			if b.url == addr {
				return b, backends[1-i]
			}
		}
		break
	}
	t.Fatalf("no backend owns system %q", system)
	return nil, nil
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func hasSpan(in *trace.Info, name string) bool {
	for _, sp := range in.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

func hasSpanAttr(in *trace.Info, key, val string) bool {
	for _, sp := range in.Spans {
		if sp.Attrs[key] == val {
			return true
		}
	}
	return false
}

// waitRunning polls until the backend reports the job running — the
// saturation setups below need a worker provably occupied, not a job
// racing through the queue.
func waitRunning(t *testing.T, cl *api.Client, id string) {
	t.Helper()
	ctx := context.Background()
	for deadline := time.Now().Add(30 * time.Second); ; {
		info, err := cl.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == service.JobRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started running: %s", id, info.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func cancelAndDrain(t *testing.T, cl *api.Client, ids ...string) {
	t.Helper()
	ctx := context.Background()
	for _, id := range ids {
		if _, err := cl.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if _, err := cl.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOverloadSpillServesBitIdentical: the no-deadline row of the matrix.
// The shard owner is saturated (worker busy, queue full); a submission
// through the router waits out SpillWait, retries the owner once, then
// spills to the cold backend — which builds the plan from scratch and
// returns a result bit-identical to a direct engine run. The spill is
// observable as a counter and a spill.wait span in the job's own trace.
func TestOverloadSpillServesBitIdentical(t *testing.T) {
	ctx := context.Background()
	cl, rt, backends := newClusterMut(t, 2, service.Config{
		Workers: 1, QueueSize: 1, StepThrottle: 30 * time.Millisecond,
	}, func(rc *router.Config) { rc.SpillWait = 50 * time.Millisecond })
	owner, other := ownerOf(t, rt, backends, "decimator(M=4)")

	// Saturate the owner directly (bypassing the shard ring): one slow job
	// on the worker, one in the only queue slot.
	direct := api.NewClient(owner.url)
	var saturators []string
	for seed := int64(101); seed <= 102; seed++ {
		info, err := direct.Submit(ctx, service.Request{
			System: "dwt97(fig3)", Options: testOptions("descent", seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		saturators = append(saturators, info.ID)
	}
	waitRunning(t, direct, saturators[0])

	start := time.Now()
	info, err := cl.Submit(ctx, service.Request{
		System: "decimator(M=4)", Options: testOptions("descent", 1),
	})
	if err != nil {
		t.Fatalf("submit against saturated owner: %v", err)
	}
	if got := byNode(t, backends, info.ID); got != other {
		t.Fatalf("job landed on %s, want the spill target %s", got.node, other.node)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("spilled after %v, want >= SpillWait (the owner gets its grace period)", elapsed)
	}
	fin, err := cl.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.JobDone {
		t.Fatalf("spilled job: state %s %q", fin.State, fin.Error)
	}
	if fin.Result == nil || fin.Result.Degraded {
		t.Fatalf("spilled job result: %+v (no deadline — must not be degraded)", fin.Result)
	}

	// Bit-identical to a direct run with an independent engine.
	sys := regSystem(t, "decimator(M=4)")
	g, err := sys.Graph(10)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(64, 1)
	probe, err := eng.EvaluateAssignment(g, core.UniformAssignment(g.NoiseSources(), 8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := wlopt.RunStrategy(g, "descent", wlopt.Options{
		Budget: probe.Power, MinFrac: 4, MaxFrac: 10, Evaluator: eng, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := fin.Result
	if r.Power != want.Power || r.Cost != want.Cost || !reflect.DeepEqual(r.Fracs, want.Fracs) {
		t.Fatalf("spilled result diverges from direct run:\n%+v\nvs\n%+v", r, want)
	}

	// The spill left its evidence: a reason-labelled counter and the
	// spill.wait span stitched into the job's trace.
	if m := scrapeMetrics(t, cl.BaseURL()); !strings.Contains(m, `wloptr_spills_total{reason="owner_queue_full"} 1`) {
		t.Fatal("spill not counted under reason=owner_queue_full")
	}
	tin, err := cl.JobTrace(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !hasSpan(tin, "spill.wait") {
		t.Fatalf("job trace lacks the spill.wait span: %+v", tin.Spans)
	}

	cancelAndDrain(t, direct, saturators...)
}

// TestOverloadShortDeadlineShedsQueuedJob: the short-deadline row. A job
// queued behind a busy worker whose deadline expires while waiting must
// be answered deadline_exceeded without a search ever running — visible
// in the error code, the shed counter, and an abort=deadline span.
func TestOverloadShortDeadlineShedsQueuedJob(t *testing.T) {
	ctx := context.Background()
	cl, rt, backends := newClusterMut(t, 2, service.Config{
		Workers: 1, StepThrottle: 30 * time.Millisecond,
	}, nil)
	owner, _ := ownerOf(t, rt, backends, "decimator(M=4)")

	direct := api.NewClient(owner.url)
	sat, err := direct.Submit(ctx, service.Request{
		System: "dwt97(fig3)", Options: testOptions("descent", 201),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, direct, sat.ID)

	opts := testOptions("descent", 1)
	opts.DeadlineMS = 300
	info, err := cl.Submit(ctx, service.Request{System: "decimator(M=4)", Options: opts})
	if err != nil {
		t.Fatalf("deadlined submit: %v", err)
	}
	fin, err := cl.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.JobFailed || fin.ErrorCode != "deadline_exceeded" {
		t.Fatalf("queued deadlined job: state %s code %q (error %q)", fin.State, fin.ErrorCode, fin.Error)
	}
	if fin.Result != nil {
		t.Fatalf("shed job carries a result: %+v", fin.Result)
	}
	if got := owner.mgr.Stats().DeadlineExpired; got != 1 {
		t.Fatalf("owner deadline_expired = %d, want 1", got)
	}
	if m := scrapeMetrics(t, owner.url); !strings.Contains(m, "wlopt_deadline_expired_total 1") {
		t.Fatal("wlopt_deadline_expired_total not exported by the shedding backend")
	}
	tin, err := cl.JobTrace(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !hasSpanAttr(tin, "abort", "deadline") {
		t.Fatalf("job trace lacks an abort=deadline span: %+v", tin.Spans)
	}

	cancelAndDrain(t, direct, sat.ID)
}

// TestOverloadMidDeadlineDegradesUncached: the mid-deadline row. A
// deadline that fires mid-search yields a served, degraded best-so-far —
// and a later submission of the identical options (same fingerprint;
// deadline_ms is excluded from it) must miss the cache, proving the
// truncated answer was never stored.
func TestOverloadMidDeadlineDegradesUncached(t *testing.T) {
	ctx := context.Background()
	cl, _, _ := newClusterMut(t, 2, service.Config{
		Workers: 2, StepThrottle: 50 * time.Millisecond,
	}, nil)

	opts := spec.Options{
		Strategy: "descent", BudgetWidth: 8, MinFrac: 4, MaxFrac: 14, Seed: 1,
		DeadlineMS: 400,
	}
	info, err := cl.Submit(ctx, service.Request{System: "dwt97(fig3)", Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.JobDone {
		t.Fatalf("mid-deadline job: state %s %q", fin.State, fin.Error)
	}
	if fin.Result == nil || !fin.Result.Degraded {
		t.Fatalf("mid-deadline result should be degraded best-so-far: %+v", fin.Result)
	}

	undegraded := opts
	undegraded.DeadlineMS = 0
	again, err := cl.Submit(ctx, service.Request{System: "dwt97(fig3)", Options: undegraded})
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("degraded answer was served from the cache to an undegraded caller")
	}
	cancelAndDrain(t, cl, again.ID)
}

// TestOverloadFlappingOwnerBounded: the flapping row. The shard owner
// answers every health probe but fails every proxied submit (injected via
// a path-matched fault transport). Each failure ejects it, and only a
// fresh run of EjectAfter passing probes readmits it, so while it flaps
// every client submission succeeds on the healthy peer and the owner is
// offered at most one submit per (EjectAfter-1) probe intervals. Once the
// flapping stops, the owner serves its shard again.
func TestOverloadFlappingOwnerBounded(t *testing.T) {
	const (
		ejectAfter = 3
		interval   = 10 * time.Millisecond
		window     = 300 * time.Millisecond
	)
	ctx := context.Background()
	var flapOn atomic.Bool
	var flapHost atomic.Value
	flapHost.Store("")
	ftr := fault.NewTransport(fault.TransportConfig{
		Seed: 11, ErrorRate: 1,
		Match: func(req *http.Request) bool {
			return flapOn.Load() && req.URL.Host == flapHost.Load().(string) &&
				req.URL.Path == "/v1/jobs"
		},
	})
	cl, rt, backends := newClusterMut(t, 2, service.Config{}, func(rc *router.Config) {
		rc.Pool.HTTPClient = &http.Client{Transport: ftr}
		rc.Pool.ProbeInterval = interval
		rc.Pool.EjectAfter = ejectAfter
	})
	owner, other := ownerOf(t, rt, backends, "dwt97(fig3)")
	flapHost.Store(strings.TrimPrefix(owner.url, "http://"))
	flapOn.Store(true)

	seed := int64(300)
	submit := func() *backendFixture {
		t.Helper()
		seed++
		info, err := cl.Submit(ctx, service.Request{
			System: "dwt97(fig3)", Options: testOptions("descent", seed),
		})
		if err != nil {
			t.Fatalf("submission %d failed: %v", seed, err)
		}
		return byNode(t, backends, info.ID)
	}

	start := time.Now()
	for time.Since(start) < window {
		if got := submit(); got != other {
			t.Fatalf("job served by the flapping backend %s", got.node)
		}
		time.Sleep(2 * time.Millisecond)
	}
	elapsed := time.Since(start)
	failed := ftr.Stats().Errors
	bound := 1 + int64(elapsed/((ejectAfter-1)*interval))
	t.Logf("%d submits tried on the flapping owner in %v (bound %d)", failed, elapsed, bound)
	if failed > bound {
		t.Fatalf("flapping owner was offered %d submits in %v, want <= %d", failed, elapsed, bound)
	}
	if failed < 2 {
		t.Fatalf("flapping owner was offered %d submits in %v: passing probes never readmitted it", failed, elapsed)
	}
	ejections := fmt.Sprintf("wloptr_ejections_total{backend=%q} %d\n", owner.url, failed)
	if m := scrapeMetrics(t, cl.BaseURL()); !strings.Contains(m, ejections) {
		t.Fatalf("metrics lack %q", ejections)
	}

	// Recovery: stop the flapping; after a run of passing probes the owner
	// is readmitted and serves its shard again.
	flapOn.Store(false)
	for i := 0; submit() != owner; i++ {
		if i >= 100 {
			t.Fatal("the owner never served its shard again after the flapping stopped")
		}
		time.Sleep(interval)
	}
}

func regSystem(t *testing.T, name string) systems.System {
	t.Helper()
	registry, err := systems.Registry()
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range registry {
		if sys.Name() == name {
			return sys
		}
	}
	t.Fatalf("system %q not in registry", name)
	return nil
}
