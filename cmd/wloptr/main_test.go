package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/systems"
	"repro/internal/trace"
	"repro/internal/wlopt"
)

// backendFixture is one in-process wloptd: a real manager behind the real
// api.Server on an httptest listener.
type backendFixture struct {
	node string
	url  string
	mgr  *service.Manager
	met  *api.ServerMetrics
	ts   *httptest.Server
}

func newBackend(t *testing.T, node string, cfg service.Config) *backendFixture {
	t.Helper()
	if cfg.NPSD == 0 {
		cfg.NPSD = 64
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	met := api.NewServerMetrics(nil)
	cfg.NodeID = node
	cfg.OnJobDone = met.ObserveJob
	rec := trace.NewRecorder(trace.RecorderConfig{})
	cfg.Tracer = rec
	mgr := service.New(cfg)
	srv := api.NewServer(mgr, api.ServerConfig{Addr: node, Metrics: met, Tracer: rec})
	ts := httptest.NewServer(srv.Handler())
	b := &backendFixture{node: node, url: ts.URL, mgr: mgr, met: met, ts: ts}
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return b
}

// newCluster boots n backends and a router over them, returning the
// router's client plus the fixtures.
func newCluster(t *testing.T, n int, cfg service.Config) (*api.Client, *router.Router, []*backendFixture) {
	t.Helper()
	nodes := []string{"b1", "b2", "b3", "b4"}[:n]
	backends := make([]*backendFixture, n)
	urls := make([]string, n)
	for i, node := range nodes {
		backends[i] = newBackend(t, node, cfg)
		urls[i] = backends[i].url
	}
	rt := router.New(router.Config{
		Pool: router.PoolConfig{
			Backends:      urls,
			ProbeInterval: 20 * time.Millisecond,
			ProbeTimeout:  2 * time.Second,
			EjectAfter:    2,
		},
		Addr: "router:0",
	})
	rt.Start()
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return api.NewClient(ts.URL), rt, backends
}

func testOptions(strategy string, seed int64) spec.Options {
	return spec.Options{Strategy: strategy, BudgetWidth: 8, MinFrac: 4, MaxFrac: 10, Seed: seed}
}

func byNode(t *testing.T, backends []*backendFixture, jobID string) *backendFixture {
	t.Helper()
	for _, b := range backends {
		if strings.HasPrefix(jobID, b.node+"-") {
			return b
		}
	}
	t.Fatalf("job ID %q carries no known node prefix", jobID)
	return nil
}

// TestRouterEndToEnd is the tentpole acceptance test: every registry
// system crossed with two strategies, submitted concurrently through the
// router over three backends, must come back bit-identical to direct
// wlopt.RunStrategy — and digest affinity must hold, measured two ways:
// cluster-wide plan builds equal the number of distinct systems, and both
// strategies of a system land on the same backend.
func TestRouterEndToEnd(t *testing.T) {
	ctx := context.Background()
	cl, _, backends := newCluster(t, 3, service.Config{})
	registry, err := systems.Registry()
	if err != nil {
		t.Fatal(err)
	}
	strategies := []string{"descent", "hybrid"}

	type tc struct{ system, strategy string }
	results := make(map[tc]*service.JobInfo)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, sys := range registry {
		for _, strat := range strategies {
			wg.Add(1)
			go func(system, strat string) {
				defer wg.Done()
				info, err := cl.Submit(ctx, service.Request{System: system, Options: testOptions(strat, 1)})
				if err != nil {
					t.Errorf("%s/%s: submit: %v", system, strat, err)
					return
				}
				fin, err := cl.Wait(ctx, info.ID)
				if err != nil {
					t.Errorf("%s/%s: wait: %v", system, strat, err)
					return
				}
				mu.Lock()
				results[tc{system, strat}] = fin
				mu.Unlock()
			}(sys.Name(), strat)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Bit-identical to a direct run with an independent engine.
	for _, sys := range registry {
		for _, strat := range strategies {
			got := results[tc{sys.Name(), strat}]
			if got == nil || got.State != service.JobDone {
				t.Fatalf("%s/%s: %+v", sys.Name(), strat, got)
			}
			g, err := sys.Graph(10)
			if err != nil {
				t.Fatal(err)
			}
			eng := core.NewEngine(64, 1)
			probe, err := eng.EvaluateAssignment(g, core.UniformAssignment(g.NoiseSources(), 8))
			if err != nil {
				t.Fatal(err)
			}
			want, err := wlopt.RunStrategy(g, strat, wlopt.Options{
				Budget: probe.Power, MinFrac: 4, MaxFrac: 10, Evaluator: eng, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			r := got.Result
			if r == nil || r.Power != want.Power || r.Cost != want.Cost ||
				r.Evaluations != want.Evaluations || !reflect.DeepEqual(r.Fracs, want.Fracs) {
				t.Fatalf("%s/%s via router diverges from direct run:\n%+v\nvs\n%+v",
					sys.Name(), strat, r, want)
			}
		}
	}

	// Affinity, measured at the job level: both strategies of one system
	// carry the same backend's node prefix.
	for _, sys := range registry {
		a := byNode(t, backends, results[tc{sys.Name(), "descent"}].ID)
		b := byNode(t, backends, results[tc{sys.Name(), "hybrid"}].ID)
		if a != b {
			t.Errorf("system %s split across %s and %s — digest affinity broken", sys.Name(), a.node, b.node)
		}
	}

	// Affinity, measured at the engine level: each distinct system built
	// its plan exactly once cluster-wide. Round-robin routing would build
	// up to len(registry)*len(strategies).
	total := int64(0)
	for _, b := range backends {
		h, err := api.NewClient(b.url).Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		total += h.Stats.PlanBuilds
	}
	if total != int64(len(registry)) {
		t.Errorf("cluster-wide plan builds = %d, want %d (one per distinct system)", total, len(registry))
	}

	// A duplicate submission through the router is a cache hit: it routes
	// to the same backend, which recognizes the request.
	dup, err := cl.Submit(ctx, service.Request{System: registry[0].Name(), Options: testOptions("descent", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !dup.CacheHit {
		t.Errorf("duplicate through router missed the cache: %+v", dup)
	}
}

// TestRouterProxyHeadersAndReads covers the read paths: X-Wlopt-Backend
// names the serving backend, job GETs route by affinity map, the SSE
// watch proxy relays frames, and cancel proxies through.
func TestRouterProxyHeadersAndReads(t *testing.T) {
	ctx := context.Background()
	cl, _, backends := newCluster(t, 3, service.Config{})

	info, err := cl.Submit(ctx, service.Request{System: "dwt97(fig3)", Options: testOptions("descent", 1)})
	if err != nil {
		t.Fatal(err)
	}
	owner := byNode(t, backends, info.ID)

	resp, err := http.Get(cl.BaseURL() + "/v1/jobs/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Wlopt-Backend"); got != owner.url {
		t.Fatalf("X-Wlopt-Backend = %q, want owner %q", got, owner.url)
	}

	// Watch through the router: current state, then the terminal event.
	var events []service.Event
	if err := cl.Watch(ctx, info.ID, func(ev service.Event) bool {
		events = append(events, ev)
		return true
	}); err != nil {
		t.Fatalf("watch through router: %v", err)
	}
	if len(events) == 0 || !events[len(events)-1].Terminal {
		t.Fatalf("watch events through router: %+v", events)
	}

	// Unknown IDs are a clean 404 envelope from the fan-out path.
	if _, err := cl.Job(ctx, "zz-j999999"); err == nil {
		t.Fatal("unknown job did not error")
	} else if apiErr, ok := err.(*api.Error); !ok || apiErr.Code != api.CodeNotFound {
		t.Fatalf("unknown job error: %v", err)
	}

	// Cancel proxies (job already terminal — cancel is a no-op snapshot,
	// but it must route and carry the header).
	if _, err := cl.Cancel(ctx, info.ID); err != nil {
		t.Fatalf("cancel through router: %v", err)
	}
}

// TestRouterListFanIn submits jobs across the cluster and pages through
// GET /v1/jobs with a small limit: the merged listing must cover every
// job exactly once, ordered by submission time, with a composite cursor
// chaining the pages.
func TestRouterListFanIn(t *testing.T) {
	ctx := context.Background()
	cl, _, _ := newCluster(t, 3, service.Config{})
	registry, err := systems.Registry()
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]bool{}
	for _, sys := range registry {
		info, err := cl.Submit(ctx, service.Request{System: sys.Name(), Options: testOptions("descent", 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Wait(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		want[info.ID] = true
	}

	got := map[string]bool{}
	var last time.Time
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 10 {
			t.Fatal("pagination did not terminate")
		}
		page, err := cl.Jobs(ctx, service.ListQuery{Limit: 2, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range page.Jobs {
			if got[j.ID] {
				t.Fatalf("job %s appeared twice across pages", j.ID)
			}
			got[j.ID] = true
			if j.Submitted.Before(last) {
				t.Fatalf("merge order violated: %s at %v after %v", j.ID, j.Submitted, last)
			}
			last = j.Submitted
		}
		if page.NextCursor == "" {
			break
		}
		if len(page.Jobs) == 0 {
			t.Fatal("empty page with a next cursor")
		}
		cursor = page.NextCursor
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fan-in listing mismatch:\ngot  %v\nwant %v", keys(got), keys(want))
	}

	// The state filter pushes down to every backend.
	page, err := cl.Jobs(ctx, service.ListQuery{State: service.JobCancelled})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 0 {
		t.Fatalf("cancelled filter returned %d jobs", len(page.Jobs))
	}
}

// TestRouterListPartial pins the degraded-listing contract: when a pooled
// backend is ejected, the fan-in page must say so (`partial`) and must
// keep a resumable cursor, instead of silently presenting the surviving
// backends' jobs as the complete listing — a paginating client that
// terminated on the empty cursor would permanently miss the dead shard's
// tail.
func TestRouterListPartial(t *testing.T) {
	ctx := context.Background()
	cl, rt, backends := newCluster(t, 3, service.Config{})
	registry, err := systems.Registry()
	if err != nil {
		t.Fatal(err)
	}

	liveJobs := map[string]bool{}
	dead := backends[0]
	for _, sys := range registry {
		info, err := cl.Submit(ctx, service.Request{System: sys.Name(), Options: testOptions("descent", 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Wait(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(info.ID, dead.node+"-") {
			liveJobs[info.ID] = true
		}
	}

	// A healthy pool lists completely: no partial flag.
	page, err := cl.Jobs(ctx, service.ListQuery{Limit: service.MaxListLimit})
	if err != nil {
		t.Fatal(err)
	}
	if page.Partial {
		t.Fatal("healthy pool returned a partial page")
	}

	// Kill one backend and wait for the probes to eject it.
	dead.ts.CloseClientConnections()
	dead.ts.Close()
	deadline := time.Now().Add(10 * time.Second)
	for rt.Pool().Healthy(dead.url) {
		if time.Now().After(deadline) {
			t.Fatal("dead backend never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	page, err = cl.Jobs(ctx, service.ListQuery{Limit: service.MaxListLimit})
	if err != nil {
		t.Fatal(err)
	}
	if !page.Partial {
		t.Fatal("listing with an ejected backend not flagged partial")
	}
	if page.NextCursor == "" {
		t.Fatal("partial page dropped its cursor — clients would terminate early")
	}
	got := map[string]bool{}
	for _, j := range page.Jobs {
		got[j.ID] = true
	}
	if !reflect.DeepEqual(got, liveJobs) {
		t.Fatalf("partial page jobs:\ngot  %v\nwant %v", keys(got), keys(liveJobs))
	}

	// Resuming the partial cursor must not resurface consumed jobs, and
	// must stay partial while the backend is out.
	page, err = cl.Jobs(ctx, service.ListQuery{Limit: service.MaxListLimit, Cursor: page.NextCursor})
	if err != nil {
		t.Fatal(err)
	}
	if !page.Partial {
		t.Fatal("resumed page not flagged partial")
	}
	if len(page.Jobs) != 0 {
		t.Fatalf("resumed page repeated %d jobs", len(page.Jobs))
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestRouterFailover kills one backend mid-cluster: the router ejects it
// (passively on the failed proxy, actively via probes) and every shard —
// including those the dead backend owned — completes on the survivors.
func TestRouterFailover(t *testing.T) {
	ctx := context.Background()
	cl, rt, backends := newCluster(t, 3, service.Config{})
	registry, err := systems.Registry()
	if err != nil {
		t.Fatal(err)
	}

	// Kill b1's listener outright (its manager stays up so cleanup works).
	dead := backends[0]
	dead.ts.CloseClientConnections()
	dead.ts.Close()

	// Every system must still complete; shards owned by the dead backend
	// fail over along the ring.
	for _, sys := range registry {
		info, err := cl.Submit(ctx, service.Request{System: sys.Name(), Options: testOptions("descent", 1)})
		if err != nil {
			t.Fatalf("%s: submit after kill: %v", sys.Name(), err)
		}
		if strings.HasPrefix(info.ID, dead.node+"-") {
			t.Fatalf("%s: job landed on the dead backend", sys.Name())
		}
		if _, err := cl.Wait(ctx, info.ID); err != nil {
			t.Fatalf("%s: wait after kill: %v", sys.Name(), err)
		}
	}

	// The pool view converges to ejected.
	deadline := time.Now().Add(10 * time.Second)
	for rt.Pool().Healthy(dead.url) {
		if time.Now().After(deadline) {
			t.Fatal("dead backend never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	healthy := 0
	for _, b := range h.Backends {
		if b.Healthy {
			healthy++
		}
	}
	if healthy != 2 {
		t.Fatalf("router healthz reports %d healthy backends, want 2: %+v", healthy, h.Backends)
	}
}

// TestRouterRejectsBadSpecAtEdge pins edge validation: a syntactically
// broken spec never reaches a backend — the router answers bad_spec with
// position info itself.
func TestRouterRejectsBadSpecAtEdge(t *testing.T) {
	cl, _, backends := newCluster(t, 2, service.Config{})
	resp, err := http.Post(cl.BaseURL()+"/v1/jobs", "application/json",
		strings.NewReader("{\n  broken"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Wlopt-Backend") != "" {
		t.Fatal("bad spec was proxied to a backend")
	}
	for _, b := range backends {
		if st := b.mgr.Stats(); st.Submitted != 0 {
			t.Fatalf("backend %s saw %d submissions", b.node, st.Submitted)
		}
	}
}

// newBackendOn is newBackend bound to a specific TCP address, so a test
// can crash a backend and restart its replacement on the same URL — the
// identity the router's pool and a reconnecting watcher both key on.
// Pass "127.0.0.1:0" for the first boot and the recorded address for
// the reboot. No cleanup is registered: crash tests manage lifetimes.
func newBackendOn(t *testing.T, addr, node string, cfg service.Config) *backendFixture {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	if cfg.NPSD == 0 {
		cfg.NPSD = 64
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	met := api.NewServerMetrics(nil)
	cfg.NodeID = node
	cfg.OnJobDone = met.ObserveJob
	mgr := service.New(cfg)
	srv := api.NewServer(mgr, api.ServerConfig{Addr: node, Metrics: met})
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	return &backendFixture{node: node, url: ts.URL, mgr: mgr, met: met, ts: ts}
}

// TestWatchReconnectThroughCrashRecovery is the tentpole scenario across
// the full stack: a watcher follows a slow job through the router; the
// owning backend is crash-stopped (journal entries survive) and rebooted
// on the same address over the same store; the watcher's severed SSE
// stream reconnects through the router's failover window, resumes on the
// recovered job, and observes exactly one terminal event — with the
// recovered result identical to an undisturbed run.
func TestWatchReconnectThroughCrashRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b1 := newBackendOn(t, "127.0.0.1:0", "b1", service.Config{
		Workers: 1, StepThrottle: 30 * time.Millisecond, Store: st1,
	})
	addr := b1.ts.Listener.Addr().String()
	b2 := newBackend(t, "b2", service.Config{})

	rt := router.New(router.Config{
		Pool: router.PoolConfig{
			Backends:      []string{b1.url, b2.url},
			ProbeInterval: 20 * time.Millisecond,
			ProbeTimeout:  2 * time.Second,
			EjectAfter:    2,
		},
		Addr: "router:0",
	})
	rt.Start()
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		rts.Close()
		rt.Close()
	})

	// Submit the slow job directly to b1 so its ownership is not at the
	// mercy of the shard ring, then watch it through the router.
	info, err := api.NewClient(b1.url).Submit(ctx, service.Request{
		System: "dwt97(fig3)", Options: testOptions("descent", 1),
	})
	if err != nil {
		t.Fatal(err)
	}

	cl := api.NewClient(rts.URL).WithRetry(api.RetryPolicy{
		MaxAttempts: 10, BaseDelay: 50 * time.Millisecond, Seed: 1,
	})
	sawProgress := make(chan struct{})
	var once sync.Once
	terminals := 0
	var finState service.JobState
	watchErr := make(chan error, 1)
	go func() {
		watchErr <- cl.Watch(ctx, info.ID, func(ev service.Event) bool {
			if ev.Type == "progress" {
				once.Do(func() { close(sawProgress) })
			}
			if ev.Terminal {
				terminals++
				finState = ev.State
			}
			return true
		})
	}()

	select {
	case <-sawProgress:
	case err := <-watchErr:
		t.Fatalf("watch ended before progress: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no progress event within 10s")
	}

	// Crash b1: suppress journal retirement (Halt is the SIGKILL stand-in)
	// and sever every connection, including the proxied watch stream.
	b1.mgr.Halt()
	b1.ts.CloseClientConnections()
	b1.ts.Close()
	if got := st1.Len(store.KindJob); got < 1 {
		t.Fatalf("journal empty after crash: %d entries", got)
	}

	// Reboot on the same address over the same store; recovery runs before
	// the listener accepts, so the watcher's reconnect finds the job.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b1r := newBackendOn(t, addr, "b1", service.Config{
		Workers: 1, StepThrottle: 5 * time.Millisecond, Store: st2,
	})
	defer func() {
		b1r.ts.Close()
		b1r.mgr.Close()
		b1.mgr.Close()
	}()
	if got := b1r.mgr.Stats().JobsRecovered; got < 1 {
		t.Fatalf("JobsRecovered = %d; want >= 1", got)
	}

	if err := <-watchErr; err != nil {
		t.Fatalf("watch did not survive the crash: %v", err)
	}
	if terminals != 1 {
		t.Fatalf("terminal events = %d; want exactly 1", terminals)
	}
	if finState != service.JobDone {
		t.Fatalf("terminal state = %s; want done", finState)
	}
	if cl.Retries() == 0 {
		t.Fatal("watcher never reconnected — the crash was not observed")
	}

	// The recovered result is identical to an undisturbed run elsewhere.
	got, err := api.NewClient(b1r.url).Job(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := api.NewClient(b2.url).Submit(ctx, service.Request{
		System: "dwt97(fig3)", Options: testOptions("descent", 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantFin, err := api.NewClient(b2.url).Wait(ctx, want.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result == nil || wantFin.Result == nil ||
		got.Result.Power != wantFin.Result.Power ||
		got.Result.Cost != wantFin.Result.Cost ||
		!reflect.DeepEqual(got.Result.Fracs, wantFin.Result.Fracs) {
		t.Fatalf("recovered result diverged:\n%+v\nvs\n%+v", got.Result, wantFin.Result)
	}
}

// TestClusterSurvivesInjectedFaults drives a seeded fault run: every
// router→backend call rides a flaky transport, one backend's store tears
// a write, and a retrying client still completes every registry system
// with results bit-identical to a direct engine run — zero lost jobs.
func TestClusterSurvivesInjectedFaults(t *testing.T) {
	ctx := context.Background()
	registry, err := systems.Registry()
	if err != nil {
		t.Fatal(err)
	}

	// b1's store tears the first write it sees (the lying-hardware shape:
	// the write claims success, the file is half there).
	ffs := fault.NewFS(fault.FSConfig{TornAt: 1})
	st1, err := store.OpenFS(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	b1 := newBackend(t, "b1", service.Config{Store: st1})
	b2 := newBackend(t, "b2", service.Config{})

	// Every router→backend call (probes included) rides a flaky transport.
	ftr := fault.NewTransport(fault.TransportConfig{
		Seed:        7,
		ErrorRate:   0.15,
		LatencyRate: 0.2,
		Latency:     5 * time.Millisecond,
	})
	rt := router.New(router.Config{
		Pool: router.PoolConfig{
			Backends:      []string{b1.url, b2.url},
			ProbeInterval: 20 * time.Millisecond,
			ProbeTimeout:  2 * time.Second,
			EjectAfter:    3,
			HTTPClient:    &http.Client{Transport: ftr},
		},
		Addr: "router:0",
	})
	rt.Start()
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		rts.Close()
		rt.Close()
	})

	// Injected transport errors may eject b1 and fail its systems over to
	// b2, so the routed loop alone need not reach b1's store. One job
	// submitted straight to b1 over a fault-free client makes its first
	// store write happen regardless of how the ring walk goes.
	direct := api.NewClient(b1.url)
	first, err := direct.Submit(ctx, service.Request{System: registry[0].Name(), Options: testOptions("descent", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := direct.Wait(ctx, first.ID); err != nil || fin.State != service.JobDone {
		t.Fatalf("direct submit to b1: %+v, %v", fin, err)
	}

	cl := api.NewClient(rts.URL).WithRetry(api.RetryPolicy{
		MaxAttempts: 8, BaseDelay: 20 * time.Millisecond, Seed: 1,
	})
	for _, sys := range registry {
		info, err := cl.Submit(ctx, service.Request{System: sys.Name(), Options: testOptions("descent", 1)})
		if err != nil {
			t.Fatalf("%s: submit through faults: %v", sys.Name(), err)
		}
		fin, err := cl.Wait(ctx, info.ID)
		if err != nil {
			t.Fatalf("%s: wait through faults: %v", sys.Name(), err)
		}
		if fin.State != service.JobDone {
			t.Fatalf("%s: state %s %q", sys.Name(), fin.State, fin.Error)
		}

		// Bit-identical to a fault-free direct run.
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
		if r == nil || r.Power != want.Power || r.Cost != want.Cost ||
			!reflect.DeepEqual(r.Fracs, want.Fracs) {
			t.Fatalf("%s through faults diverges from direct run:\n%+v\nvs\n%+v", sys.Name(), r, want)
		}
	}

	// The faults actually fired — a run that injected nothing proves
	// nothing.
	if s := ftr.Stats(); s.Errors == 0 {
		t.Fatalf("no transport errors injected: %+v", s)
	}
	if s := ffs.Stats(); s.Torn != 1 {
		t.Fatalf("torn writes = %d; want 1", s.Torn)
	}
}
