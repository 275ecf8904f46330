package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/spec"
)

// newTestServer boots a manager plus mounted API on an httptest listener
// and returns a typed client for it.
func newTestServer(t *testing.T, cfg service.Config) (*Client, *service.Manager, *ServerMetrics) {
	t.Helper()
	if cfg.NPSD == 0 {
		cfg.NPSD = 64
	}
	met := NewServerMetrics(nil)
	if cfg.OnJobDone == nil {
		cfg.OnJobDone = met.ObserveJob
	}
	mgr := service.New(cfg)
	srv := NewServer(mgr, ServerConfig{Addr: "test:0", Metrics: met})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return NewClient(ts.URL), mgr, met
}

func testOptions(strategy string) spec.Options {
	return spec.Options{Strategy: strategy, BudgetWidth: 8, MinFrac: 4, MaxFrac: 10, Seed: 1}
}

// TestErrorEnvelopeEveryPath is the uniform-error satellite: every non-2xx
// response body is {"error":{"code":...,"message":...}} with a
// machine-readable code, across every error path the API has.
func TestErrorEnvelopeEveryPath(t *testing.T) {
	cl, _, _ := newTestServer(t, service.Config{Workers: 1})

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
		wantPos    bool   // expects line/col in the envelope
		wantInMsg  string // a substring the message must hold
	}{
		{
			name: "unknown job", method: http.MethodGet, path: "/v1/jobs/j999999",
			wantStatus: http.StatusNotFound, wantCode: CodeNotFound,
		},
		{
			name: "unknown job cancel", method: http.MethodDelete, path: "/v1/jobs/j999999",
			wantStatus: http.StatusNotFound, wantCode: CodeNotFound,
		},
		{
			name: "unknown system", method: http.MethodPost, path: "/v1/jobs",
			body:       `{"system":"nope","options":{"budget_width":8}}`,
			wantStatus: http.StatusNotFound, wantCode: CodeNotFound,
		},
		{
			name: "garbage body", method: http.MethodPost, path: "/v1/jobs",
			body:       `not json`,
			wantStatus: http.StatusBadRequest, wantCode: CodeBadSpec, wantPos: true,
		},
		{
			name: "neither system nor spec", method: http.MethodPost, path: "/v1/jobs",
			body:       `{"options":{"budget_width":8}}`,
			wantStatus: http.StatusBadRequest, wantCode: CodeBadSpec,
		},
		{
			name: "raw spec with syntax error", method: http.MethodPost, path: "/v1/jobs",
			body:       "{\n  \"nodes\": [,]\n}",
			wantStatus: http.StatusBadRequest, wantCode: CodeBadSpec, wantPos: true,
		},
		{
			name: "typoed spec field", method: http.MethodPost, path: "/v1/jobs",
			body:       `{"spec":{"nodes":[{"name":"a","kind":"input","noise":{"frac":12,"frac_inn":16}},{"name":"o","kind":"output"}],"edges":[["a","o"]]},"options":{"budget_width":8}}`,
			wantStatus: http.StatusBadRequest, wantCode: CodeBadSpec,
		},
		{
			name: "bad options", method: http.MethodPost, path: "/v1/jobs",
			body:       `{"system":"dwt97(fig3)","options":{"budget_width":8,"min_frac":9,"max_frac":4}}`,
			wantStatus: http.StatusBadRequest, wantCode: CodeBadRequest,
		},
		{
			name: "anneal rounds above the maximum", method: http.MethodPost, path: "/v1/jobs",
			body:       `{"system":"dwt97(fig3)","options":{"strategy":"anneal","budget_width":8,"anneal_rounds":100001}}`,
			wantStatus: http.StatusBadRequest, wantCode: CodeBadRequest, wantInMsg: "anneal_rounds",
		},
		{
			name: "unknown strategy", method: http.MethodPost, path: "/v1/jobs",
			body:       `{"system":"dwt97(fig3)","options":{"strategy":"magic","budget_width":8}}`,
			wantStatus: http.StatusBadRequest, wantCode: CodeBadRequest,
		},
		{
			name: "bad list limit", method: http.MethodGet, path: "/v1/jobs?limit=banana",
			wantStatus: http.StatusBadRequest, wantCode: CodeBadRequest,
		},
		{
			name: "bad list state", method: http.MethodGet, path: "/v1/jobs?state=exploded",
			wantStatus: http.StatusBadRequest, wantCode: CodeBadRequest,
		},
		{
			name: "bad list cursor", method: http.MethodGet, path: "/v1/jobs?cursor=%21%21",
			wantStatus: http.StatusBadRequest, wantCode: CodeBadRequest,
		},
		{
			name: "watch unknown job", method: http.MethodGet, path: "/v1/jobs/j999999?watch=1",
			wantStatus: http.StatusNotFound, wantCode: CodeNotFound,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rd *strings.Reader = strings.NewReader(tc.body)
			req, err := http.NewRequest(tc.method, cl.BaseURL()+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("error response content type %q, want JSON envelope", ct)
			}
			var env ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("decode envelope: %v", err)
			}
			if env.Error == nil || env.Error.Code != tc.wantCode {
				t.Fatalf("envelope %+v, want code %q", env.Error, tc.wantCode)
			}
			if env.Error.Message == "" {
				t.Fatal("empty error message")
			}
			if !strings.Contains(env.Error.Message, tc.wantInMsg) {
				t.Fatalf("message %q does not name %q", env.Error.Message, tc.wantInMsg)
			}
			if tc.wantPos && (env.Error.Line == 0 || env.Error.Col == 0) {
				t.Fatalf("bad_spec envelope lacks position: %+v", env.Error)
			}
		})
	}
}

// TestQueueFullReturns429WithRetryAfter pins the backpressure contract: a
// saturated queue answers 429 queue_full with a Retry-After hint.
func TestQueueFullReturns429WithRetryAfter(t *testing.T) {
	cl, _, _ := newTestServer(t, service.Config{
		Workers: 1, QueueSize: 1, StepThrottle: 50 * time.Millisecond,
	})
	ctx := context.Background()
	// Distinct seeds so nothing coalesces: one running, one queued, the
	// next rejected.
	var lastErr error
	for i := 0; i < 8; i++ {
		opts := testOptions("descent")
		opts.Seed = int64(i + 1)
		_, err := cl.Submit(ctx, service.Request{System: "dwt97(fig3)", Options: opts})
		if err != nil {
			lastErr = err
			break
		}
	}
	var apiErr *Error
	if !errors.As(lastErr, &apiErr) {
		t.Fatalf("saturation error %v, want *api.Error", lastErr)
	}
	if apiErr.Code != CodeQueueFull || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("error %+v, want queue_full 429", apiErr)
	}
	if apiErr.RetryAfterS < 1 {
		t.Fatalf("429 lacked Retry-After: %+v", apiErr)
	}
}

// TestHealthzReportsIdentity covers the healthz satellite: version,
// uptime and the configured listen address identify the answering node.
func TestHealthzReportsIdentity(t *testing.T) {
	cl, _, _ := newTestServer(t, service.Config{Workers: 1})
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != ServerVersion || h.Addr != "test:0" {
		t.Fatalf("health identity %+v", h)
	}
	if h.UptimeS < 0 || h.UptimeS > 60 {
		t.Fatalf("uptime %g", h.UptimeS)
	}
	if h.Stats == nil || h.Stats.QueueCap == 0 || h.Stats.Workers != 1 {
		t.Fatalf("health stats %+v", h.Stats)
	}
}

// TestListPaginationOverHTTP drives ?limit=/?cursor=/?state= through the
// wire layer and the typed client.
func TestListPaginationOverHTTP(t *testing.T) {
	cl, _, _ := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 3; i++ {
		opts := testOptions("descent")
		opts.Seed = int64(i + 1)
		info, err := cl.Submit(ctx, service.Request{System: "fir-lp31(tab1)", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Wait(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}

	page, err := cl.Jobs(ctx, service.ListQuery{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 2 || page.NextCursor != ids[1] {
		t.Fatalf("first page: %d jobs, cursor %q (want %q)", len(page.Jobs), page.NextCursor, ids[1])
	}
	page, err = cl.Jobs(ctx, service.ListQuery{Limit: 2, Cursor: page.NextCursor})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 1 || page.Jobs[0].ID != ids[2] || page.NextCursor != "" {
		t.Fatalf("second page: %+v cursor %q", page.Jobs, page.NextCursor)
	}

	done, err := cl.Jobs(ctx, service.ListQuery{State: service.JobDone})
	if err != nil {
		t.Fatal(err)
	}
	if len(done.Jobs) != 3 {
		t.Fatalf("%d done jobs, want 3", len(done.Jobs))
	}
	failed, err := cl.Jobs(ctx, service.ListQuery{State: service.JobFailed})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed.Jobs) != 0 {
		t.Fatalf("%d failed jobs, want 0", len(failed.Jobs))
	}
}

// TestClientSubmitWaitRoundTrip pins the typed happy path: submit, watch
// to terminal, verify the cache-hit repeat mirrors 200.
func TestClientSubmitWaitRoundTrip(t *testing.T) {
	cl, _, _ := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()
	req := service.Request{System: "dwt97(fig3)", Options: testOptions("hybrid")}

	info, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.JobDone || fin.Result == nil {
		t.Fatalf("final %+v", fin)
	}

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	dup, status, err := cl.SubmitBody(ctx, body)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || !dup.CacheHit {
		t.Fatalf("duplicate status %d cacheHit %v, want 200 cache hit", status, dup.CacheHit)
	}
}

// TestClientWatchStreamsProgress sees at least the state transitions and
// one progress event through the SSE client.
func TestClientWatchStreamsProgress(t *testing.T) {
	cl, _, _ := newTestServer(t, service.Config{Workers: 1, StepThrottle: 5 * time.Millisecond})
	ctx := context.Background()
	info, err := cl.Submit(ctx, service.Request{System: "dwt97(fig3)", Options: testOptions("descent")})
	if err != nil {
		t.Fatal(err)
	}
	var progress, terminal int
	err = cl.Watch(ctx, info.ID, func(ev service.Event) bool {
		if ev.Type == "progress" {
			progress++
		}
		if ev.Terminal {
			terminal++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if progress == 0 || terminal != 1 {
		t.Fatalf("saw %d progress events, %d terminal", progress, terminal)
	}
}

// TestWatchConflatesProgressFrames: the SSE stream sends the current state
// at once, then at most one progress frame per watchFrameInterval, then
// exactly one terminal frame — not one frame per search step.
func TestWatchConflatesProgressFrames(t *testing.T) {
	cl, _, _ := newTestServer(t, service.Config{Workers: 1, StepThrottle: 10 * time.Millisecond})
	ctx := context.Background()
	info, err := cl.Submit(ctx, service.Request{System: "dwt97(fig3)", Options: testOptions("descent")})
	if err != nil {
		t.Fatal(err)
	}
	var events, terminal int
	start := time.Now()
	err = cl.Watch(ctx, info.ID, func(ev service.Event) bool {
		events++
		if ev.Terminal {
			terminal++
		}
		return true
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	bound := int((elapsed+watchFrameInterval-1)/watchFrameInterval) + 3
	if events > bound || terminal != 1 {
		t.Fatalf("%d events (%d terminal) in %v; want at most %d and exactly one terminal", events, terminal, elapsed, bound)
	}
}

// TestMetricsExposition asserts the backend /metrics surface the cluster
// smoke test depends on: job latency histogram, cache hit and plan build
// counters, queue gauges, per-route request counts.
func TestMetricsExposition(t *testing.T) {
	cl, _, _ := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()
	req := service.Request{System: "fir-lp31(tab1)", Options: testOptions("descent")}
	info, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(ctx, req); err != nil { // cache hit
		t.Fatal(err)
	}

	text, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`wlopt_job_duration_seconds_count{outcome="done"} 2`,
		"wlopt_cache_hits_total 1",
		"wlopt_plan_builds_total 1",
		"wlopt_queue_depth 0",
		"wlopt_queue_capacity 256",
		// The /healthz-named occupancy aliases and the drain-rate hint the
		// router's spill/Retry-After logic scrapes.
		"wlopt_queue_len 0",
		"wlopt_queue_cap 256",
		"wlopt_retry_after_seconds 1",
		"wlopt_deadline_expired_total 0",
		"wlopt_degraded_total 0",
		"wlopt_promotions_shed_total 0",
		`wlopt_http_requests_total{route="submit",code="202"} 1`,
		`wlopt_http_requests_total{route="submit",code="200"} 1`,
		"wlopt_jobs_submitted_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
