package router

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyBackend is an httptest /healthz endpoint whose availability the
// test toggles.
type flakyBackend struct {
	up atomic.Bool
	ts *httptest.Server
}

func newFlakyBackend(t *testing.T) *flakyBackend {
	f := &flakyBackend{}
	f.up.Store(true)
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !f.up.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok","version":"test","uptime_s":1,"addr":"x"}`))
	}))
	t.Cleanup(f.ts.Close)
	return f
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPoolEjectAndReadmit drives the active health loop: a backend that
// fails EjectAfter consecutive probes is ejected, recovers after
// EjectAfter consecutive successes, and transitions are observable via
// the hooks and Healthz.
func TestPoolEjectAndReadmit(t *testing.T) {
	good := newFlakyBackend(t)
	flaky := newFlakyBackend(t)
	var ejects, readmits atomic.Int64
	p := NewPool(PoolConfig{
		Backends:      []string{good.ts.URL, flaky.ts.URL},
		ProbeInterval: 5 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		EjectAfter:    3,
		OnEject:       func(string, error) { ejects.Add(1) },
		OnReadmit:     func(string) { readmits.Add(1) },
	})
	p.Start()
	defer p.Close()

	if !p.Healthy(flaky.ts.URL) || !p.Healthy(good.ts.URL) {
		t.Fatal("backends must start healthy (optimistic admission)")
	}

	// HTTP 500 probes are client.Health errors (*api.Error) — they count
	// as probe failures even though the transport is fine.
	flaky.up.Store(false)
	waitFor(t, "ejection", func() bool { return !p.Healthy(flaky.ts.URL) })
	if p.Healthy(flaky.ts.URL) {
		t.Fatal("flaky backend still admitted")
	}
	if !p.Healthy(good.ts.URL) {
		t.Fatal("healthy peer was ejected collaterally")
	}
	if _, _, err := p.Acquire(flaky.ts.URL); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("Acquire on ejected backend: %v", err)
	}

	flaky.up.Store(true)
	waitFor(t, "readmission", func() bool { return p.Healthy(flaky.ts.URL) })
	if ejects.Load() < 1 || readmits.Load() < 1 {
		t.Fatalf("hooks: %d ejects, %d readmits", ejects.Load(), readmits.Load())
	}

	hz := p.Healthz()
	if len(hz) != 2 {
		t.Fatalf("Healthz reports %d backends", len(hz))
	}
	for _, b := range hz {
		if !b.Healthy {
			t.Fatalf("backend %s unhealthy after recovery: %+v", b.Addr, b)
		}
	}
}

// TestPoolAdmissionBound pins the in-flight admission control: the
// InFlight-th concurrent Acquire succeeds, the next is ErrBackendBusy,
// and releasing a slot readmits.
func TestPoolAdmissionBound(t *testing.T) {
	b := newFlakyBackend(t)
	p := NewPool(PoolConfig{Backends: []string{b.ts.URL}, InFlight: 2})
	// No Start: admission is independent of the probe loop.

	_, rel1, err := p.Acquire(b.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, rel2, err := p.Acquire(b.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Acquire(b.ts.URL); !errors.Is(err, ErrBackendBusy) {
		t.Fatalf("over-capacity Acquire: %v, want ErrBackendBusy", err)
	}
	if got := p.InFlight(b.ts.URL); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	rel1(nil)
	if _, rel3, err := p.Acquire(b.ts.URL); err != nil {
		t.Fatalf("Acquire after release: %v", err)
	} else {
		rel3(nil)
	}
	rel2(nil)
	if got := p.InFlight(b.ts.URL); got != 0 {
		t.Fatalf("InFlight = %d after all releases", got)
	}
}

// TestPoolFlappingBackendBounded drives the flapping case: a backend that
// answers every probe but fails every proxied request. Each failure
// ejects it, only a fresh run of EjectAfter passing probes readmits it,
// and between failures Acquire refuses it with ErrNoBackend — so it is
// offered at most one request per (EjectAfter-1) probe intervals, however
// eagerly traffic arrives.
func TestPoolFlappingBackendBounded(t *testing.T) {
	const (
		ejectAfter = 3
		interval   = 10 * time.Millisecond
		window     = 200 * time.Millisecond
	)
	b := newFlakyBackend(t)
	var ejects, readmits atomic.Int64
	p := NewPool(PoolConfig{
		Backends:      []string{b.ts.URL},
		ProbeInterval: interval,
		EjectAfter:    ejectAfter,
		OnEject:       func(string, error) { ejects.Add(1) },
		OnReadmit:     func(string) { readmits.Add(1) },
	})
	p.Start()
	defer p.Close()
	addr := b.ts.URL

	requests := 0
	start := time.Now()
	for time.Since(start) < window {
		_, rel, err := p.Acquire(addr)
		if err != nil {
			if !errors.Is(err, ErrNoBackend) {
				t.Fatalf("Acquire between failures: %v, want ErrNoBackend", err)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		requests++
		rel(errors.New("injected transport failure"))
		if _, _, err := p.Acquire(addr); !errors.Is(err, ErrNoBackend) {
			t.Fatalf("Acquire right after a failed request: %v, want ErrNoBackend", err)
		}
	}
	elapsed := time.Since(start)

	bound := 1 + int(elapsed/((ejectAfter-1)*interval))
	t.Logf("%d requests in %v (bound %d)", requests, elapsed, bound)
	if requests > bound {
		t.Fatalf("flapping backend got %d requests in %v, want <= %d", requests, elapsed, bound)
	}
	if requests < 2 {
		t.Fatalf("flapping backend got %d requests in %v: passing probes never readmitted it", requests, elapsed)
	}
	if got := ejects.Load(); got != int64(requests) {
		t.Fatalf("%d ejections for %d failed requests", got, requests)
	}
	if got := readmits.Load(); got < int64(requests-1) {
		t.Fatalf("%d readmissions between %d failed requests", got, requests)
	}
}

// TestPoolReadmitRunRestartsOnFailure: the run of passing probes that
// readmits an ejected backend is its trial, and any failure, probed or
// proxied, voids it — readmission needs EjectAfter passes in a row after
// the last failure. Probes are driven by hand, so the count is exact.
func TestPoolReadmitRunRestartsOnFailure(t *testing.T) {
	b := newFlakyBackend(t)
	p := NewPool(PoolConfig{Backends: []string{b.ts.URL}, EjectAfter: 3})
	addr := b.ts.URL

	p.ReportFailure(addr, errors.New("injected transport failure"))
	if p.Healthy(addr) {
		t.Fatal("backend admitted after a proxied transport failure")
	}
	p.probeAll()
	p.probeAll()
	b.up.Store(false)
	p.probeAll() // the third probe of the run fails: the run restarts
	b.up.Store(true)
	p.probeAll()
	p.probeAll()
	p.ReportFailure(addr, errors.New("read-side failure")) // restarts it again
	for i := 1; i <= 3; i++ {
		if p.Healthy(addr) {
			t.Fatalf("readmitted after %d passing probes since the last failure, want 3", i-1)
		}
		p.probeAll()
	}
	if !p.Healthy(addr) {
		t.Fatal("not readmitted after 3 passing probes in a row")
	}
	if hz := p.Healthz(); hz[0].ConsecFailures != 0 || hz[0].LastError != "" {
		t.Fatalf("readmitted backend still reports failing: %+v", hz[0])
	}
}

// TestPoolProbeCapturesStats: a successful probe stores the backend's
// queue census, Healthz surfaces it, and RetryAfterHint prefers the
// backend's own drain-rate estimate (falling back to 1 before any probe).
func TestPoolProbeCapturesStats(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok","version":"test","uptime_s":1,"addr":"x",
			"stats":{"queue_len":6,"queue_cap":8,"retry_after_s":7}}`))
	}))
	t.Cleanup(ts.Close)
	p := NewPool(PoolConfig{Backends: []string{ts.URL}, ProbeInterval: 2 * time.Millisecond})
	if got := p.RetryAfterHint(ts.URL); got != 1 {
		t.Fatalf("pre-probe hint %d, want the floor 1", got)
	}
	p.Start()
	defer p.Close()
	waitFor(t, "probe stats capture", func() bool { return p.RetryAfterHint(ts.URL) == 7 })
	hz := p.Healthz()
	if hz[0].QueueLen != 6 || hz[0].QueueCap != 8 || hz[0].RetryAfterS != 7 {
		t.Fatalf("Healthz occupancy not captured: %+v", hz[0])
	}
}

// TestPoolPassiveEjection pins the fast path: one transport-level failure
// reported through release ejects immediately — no probe round needed.
func TestPoolPassiveEjection(t *testing.T) {
	b := newFlakyBackend(t)
	p := NewPool(PoolConfig{Backends: []string{b.ts.URL}})
	_, rel, err := p.Acquire(b.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	rel(errors.New("connection refused"))
	if p.Healthy(b.ts.URL) {
		t.Fatal("backend still admitted after transport failure")
	}
	hz := p.Healthz()
	if hz[0].Failures != 1 || hz[0].LastError == "" {
		t.Fatalf("failure not recorded: %+v", hz[0])
	}
}
