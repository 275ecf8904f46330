package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/service"
)

// stallBackend fakes a healthy-but-slow wloptd: /healthz answers
// immediately (500 while down is set), POST /v1/jobs signals receipt and
// then blocks until the request is abandoned. It lets the test hold a
// proxied submit open while the client side walks away.
type stallBackend struct {
	ts       *httptest.Server
	received chan struct{} // one signal per POST /v1/jobs
	release  chan struct{} // closed at cleanup: unblocks stalled handlers
	posts    atomic.Int64
	down     atomic.Bool
}

func newStallBackend(t *testing.T) *stallBackend {
	t.Helper()
	b := &stallBackend{received: make(chan struct{}, 16), release: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if b.down.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"status":"ok","version":"test","uptime_s":1,"addr":"stall"}`)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// Consume the body so the server starts its background read and can
		// detect the router abandoning the connection (a real wloptd reads
		// the body too — without this, r.Context() never fires on hang-up).
		io.Copy(io.Discard, r.Body)
		b.posts.Add(1)
		b.received <- struct{}{}
		select {
		case <-r.Context().Done():
		case <-b.release:
		}
	})
	b.ts = httptest.NewServer(mux)
	t.Cleanup(b.ts.Close)
	t.Cleanup(func() { close(b.release) }) // LIFO: unblock before Close waits
	return b
}

// TestClientCancelDoesNotEject pins the passive-ejection rule: a client
// that disconnects mid-submit must not get the shard owner ejected, and
// must not trigger the failover walk — before the clientCaused guard, one
// canceled request ejected the owner and then every other backend along
// the ring, turning a single impatient client into a full-pool outage.
func TestClientCancelDoesNotEject(t *testing.T) {
	b1, b2 := newStallBackend(t), newStallBackend(t)
	rt := New(Config{Pool: PoolConfig{Backends: []string{b1.ts.URL, b2.ts.URL}}})
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"system":"probe"}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	// Wait until the owner backend is holding the proxied submit, then
	// hang up the client.
	select {
	case <-b1.received:
	case <-b2.received:
	case <-time.After(5 * time.Second):
		t.Fatal("no backend received the submit")
	}
	cancel()
	<-done
	// Do returns as soon as the client-side cancel lands; give the router
	// handler a beat to finish, so a buggy post-cancel ring walk (the very
	// regression this test pins) cannot slip in after the assertions.
	time.Sleep(100 * time.Millisecond)

	// The whole point: neither the owner nor any failover candidate was
	// ejected, and the submit was not retried along the ring.
	for _, b := range []*stallBackend{b1, b2} {
		if !rt.Pool().Healthy(b.ts.URL) {
			t.Errorf("backend %s ejected by a client-side cancel", b.ts.URL)
		}
	}
	if total := b1.posts.Load() + b2.posts.Load(); total != 1 {
		t.Errorf("submit proxied %d times, want 1 (no ring walk for a vanished client)", total)
	}
}

// TestClientHangUpIsNoVerdict: a client hang-up mid-proxy says nothing
// about the backend, for or against. It must not clear the failure count
// a failed probe left behind, so the backend is still ejected after
// EjectAfter failed probes in all, hang-up or not. Probes are driven by
// hand, so the count is exact.
func TestClientHangUpIsNoVerdict(t *testing.T) {
	const ejectAfter = 3
	b := newStallBackend(t)
	rt := New(Config{Pool: PoolConfig{Backends: []string{b.ts.URL}, EjectAfter: ejectAfter}})
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	b.down.Store(true)
	rt.Pool().probeAll()

	// Hang up mid-proxy, and wait for the router to return the slot.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"system":"probe"}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-b.received:
	case <-time.After(5 * time.Second):
		t.Fatal("the backend never received the submit")
	}
	cancel()
	<-done
	waitFor(t, "the proxied submit's slot", func() bool { return rt.Pool().InFlight(b.ts.URL) == 0 })

	h, err := api.NewClient(ts.URL).Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Backends[0].ConsecFailures; got != 1 {
		t.Fatalf("consec_failures = %d after one failed probe and a hang-up, want 1", got)
	}
	for i := 1; i < ejectAfter; i++ {
		if !rt.Pool().Healthy(b.ts.URL) {
			t.Fatalf("ejected after %d failed probes, want %d", i, ejectAfter)
		}
		rt.Pool().probeAll()
	}
	if rt.Pool().Healthy(b.ts.URL) {
		t.Fatalf("still admitted after %d failed probes", ejectAfter)
	}
}

// TestLocateEjectedHolderIsRetryable: a job whose holder the router knows
// but has ejected is out of reach, not missing — GET answers no_backend,
// which clients retry, instead of a not_found they would give up on.
func TestLocateEjectedHolderIsRetryable(t *testing.T) {
	b1, b2 := newModeBackend(t), newModeBackend(t)
	rt := New(Config{Pool: PoolConfig{Backends: []string{b1.ts.URL, b2.ts.URL}}})
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	resp := submitProbe(t, ts)
	var info service.JobInfo
	err := json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	rt.Pool().ReportFailure(resp.Header.Get(BackendHeader), errors.New("injected"))

	_, err = api.NewClient(ts.URL).Job(context.Background(), info.ID)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNoBackend {
		t.Fatalf("job on an ejected holder: %v; want code %s", err, api.CodeNoBackend)
	}
}

// modeBackend fakes a wloptd whose POST /v1/jobs behavior the test steers
// per request: "ok" answers 202, "full" answers 429 queue_full with
// Retry-After: 9, "stall" blocks until the request is abandoned or the
// test releases it. /healthz always answers healthy and reports a queue
// census with retry_after_s: 4, so probe-driven occupancy hints are
// distinguishable from the hardcoded floor of 1.
type modeBackend struct {
	ts      *httptest.Server
	mode    atomic.Value // "ok" | "full" | "stall"
	posts   atomic.Int64
	release chan struct{}
	relOnce sync.Once
}

// unblock releases every stalled handler, at most once — tests call it to
// let a deliberately-held request finish; cleanup calls it as a backstop.
func (b *modeBackend) unblock() { b.relOnce.Do(func() { close(b.release) }) }

func newModeBackend(t *testing.T) *modeBackend {
	t.Helper()
	b := &modeBackend{release: make(chan struct{})}
	b.mode.Store("ok")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok","version":"test","uptime_s":1,"addr":"mode",
			"stats":{"queue_len":6,"queue_cap":8,"retry_after_s":4}}`)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		n := b.posts.Add(1)
		switch b.mode.Load().(string) {
		case "full":
			w.Header().Set("Retry-After", "9")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: &api.Error{
				Code: api.CodeQueueFull, Message: "queue full",
			}})
		case "stall":
			select {
			case <-r.Context().Done():
			case <-b.release:
			}
		default:
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(service.JobInfo{
				ID: fmt.Sprintf("j%d", n), State: service.JobQueued,
			})
		}
	})
	b.ts = httptest.NewServer(mux)
	t.Cleanup(b.ts.Close)
	t.Cleanup(b.unblock)
	return b
}

// spillOwner orders two mode backends as (owner, other) for the
// "system:probe" shard key, so each test can saturate the owner
// deterministically regardless of how the URLs hashed onto the ring.
func spillOwner(rt *Router, b1, b2 *modeBackend) (*modeBackend, *modeBackend) {
	for _, addr := range rt.Pool().Ring().Seq("system:probe") {
		if addr == b1.ts.URL {
			return b1, b2
		}
		return b2, b1
	}
	return b1, b2
}

func submitProbe(t *testing.T, ts *httptest.Server) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"system":"probe"}`))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func scrapeMetric(t *testing.T, ts *httptest.Server, line string) bool {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return strings.Contains(string(data), line)
}

// TestSpillAfterDelayOnQueueFullOwner drives the spill policy end to end:
// the shard owner answers queue_full, the router waits SpillWait, retries
// the owner once, and only then spills to the next ring backend — which
// answers, cold cache and all. The owner must see exactly two posts
// (initial + post-wait retry) and the spill must be counted by reason.
func TestSpillAfterDelayOnQueueFullOwner(t *testing.T) {
	b1, b2 := newModeBackend(t), newModeBackend(t)
	rt := New(Config{
		Pool:      PoolConfig{Backends: []string{b1.ts.URL, b2.ts.URL}},
		SpillWait: 20 * time.Millisecond,
	})
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	owner, other := spillOwner(rt, b1, b2)
	owner.mode.Store("full")

	start := time.Now()
	resp := submitProbe(t, ts)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("spilled submit: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(BackendHeader); got != other.ts.URL {
		t.Fatalf("served by %q, want the spill target %q", got, other.ts.URL)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("spilled after %v, want >= SpillWait (the owner gets a grace period)", elapsed)
	}
	if got := owner.posts.Load(); got != 2 {
		t.Fatalf("owner saw %d posts, want 2 (initial + one post-wait retry)", got)
	}
	if got := other.posts.Load(); got != 1 {
		t.Fatalf("spill target saw %d posts, want 1", got)
	}
	if !scrapeMetric(t, ts, `wloptr_spills_total{reason="owner_queue_full"} 1`) {
		t.Fatal("spill not counted under reason=owner_queue_full")
	}
}

// TestSpillAfterDelayOnBusyOwner: same policy when the saturation is the
// router's own in-flight bound rather than a backend verdict — a stalled
// request holds the owner's only slot, and the next submission for the
// same key spills to the other backend after the bounded wait.
func TestSpillAfterDelayOnBusyOwner(t *testing.T) {
	b1, b2 := newModeBackend(t), newModeBackend(t)
	rt := New(Config{
		Pool:      PoolConfig{Backends: []string{b1.ts.URL, b2.ts.URL}, InFlight: 1},
		SpillWait: 20 * time.Millisecond,
	})
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	owner, other := spillOwner(rt, b1, b2)
	owner.mode.Store("stall")

	// Occupy the owner's only router-side slot with a stalled submit.
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"system":"probe"}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, "owner slot occupied", func() bool { return rt.Pool().InFlight(owner.ts.URL) == 1 })

	resp := submitProbe(t, ts)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("spilled submit: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(BackendHeader); got != other.ts.URL {
		t.Fatalf("served by %q, want the spill target %q", got, other.ts.URL)
	}
	if !scrapeMetric(t, ts, `wloptr_spills_total{reason="owner_busy"} 1`) {
		t.Fatal("spill not counted under reason=owner_busy")
	}
	owner.unblock() // release the stalled submit
	<-stalled
}

// TestAllBackendsQueueFullPropagatesRetryAfter pins satellite behavior:
// when the whole ring answers queue_full, the router propagates the last
// backend verdict — including the backend's own drain-rate Retry-After —
// instead of synthesizing a hint of its own.
func TestAllBackendsQueueFullPropagatesRetryAfter(t *testing.T) {
	b1, b2 := newModeBackend(t), newModeBackend(t)
	rt := New(Config{
		Pool:      PoolConfig{Backends: []string{b1.ts.URL, b2.ts.URL}},
		SpillWait: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	b1.mode.Store("full")
	b2.mode.Store("full")

	resp := submitProbe(t, ts)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "9" {
		t.Fatalf("Retry-After %q, want the backend's own hint 9", got)
	}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != api.CodeQueueFull {
		t.Fatalf("error envelope %+v, want queue_full", env.Error)
	}
}

// TestAllBackendsBusyUsesProbedRetryAfter: when saturation is the
// router's own in-flight bound (no backend answered at all), the 429's
// Retry-After comes from the owner's probed queue census — here the
// backends advertise retry_after_s: 4 on /healthz — not a hardcoded 1.
func TestAllBackendsBusyUsesProbedRetryAfter(t *testing.T) {
	b1, b2 := newModeBackend(t), newModeBackend(t)
	rt := New(Config{
		Pool: PoolConfig{
			Backends:      []string{b1.ts.URL, b2.ts.URL},
			InFlight:      1,
			ProbeInterval: 2 * time.Millisecond,
		},
		SpillWait: 5 * time.Millisecond,
	})
	rt.Start()
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	waitFor(t, "probe stats", func() bool { return rt.Pool().RetryAfterHint(b1.ts.URL) == 4 })

	// Occupy both backends' only slots directly at the pool.
	_, rel1, err := rt.Pool().Acquire(b1.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rel1(nil)
	_, rel2, err := rt.Pool().Acquire(b2.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rel2(nil)

	resp := submitProbe(t, ts)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Fatalf("Retry-After %q, want the probed occupancy hint 4", got)
	}
}
