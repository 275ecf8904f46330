package router

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/trace"
)

// BackendHeader names the response header carrying the backend that
// served a proxied request — the cluster smoke test (and any operator
// with curl -i) uses it to observe digest affinity directly.
const BackendHeader = "X-Wlopt-Backend"

// jobMapSize bounds the job-ID → backend affinity map. Entries beyond the
// bound evict FIFO; lookups for evicted jobs fall back to fanning out
// across the pool.
const jobMapSize = 65536

// Config configures the router front end.
type Config struct {
	// Pool configures the backend set (addresses, probing, admission).
	Pool PoolConfig
	// MaxBody bounds submit bodies; <=0 selects 1 MiB.
	MaxBody int64
	// Version and Addr are reported on /healthz (Version "" selects
	// api.ServerVersion).
	Version string
	Addr    string
	// Registry receives the router's wloptr_* metrics (nil creates one).
	Registry *metrics.Registry
	// SpillWait bounds how long a submission waits for its saturated shard
	// owner (in-flight bound hit, or the backend answered queue_full) to
	// free capacity before spilling to the next ring backend — accepting a
	// cold-cache plan build over a rejection. When the job carries a
	// deadline (X-Wlopt-Deadline), the wait is further clamped to a quarter
	// of what remains of it, so tight deadlines spend their budget
	// searching, not queueing. <=0 selects 250ms.
	SpillWait time.Duration
	// Log receives the router's structured log stream (health transitions,
	// proxied submissions). nil discards.
	Log *slog.Logger
	// Tracer records the router's half of every request's span tree: a
	// root span per proxied request plus one child per failover attempt.
	// The trace ID travels to the backend on X-Wlopt-Trace, and
	// GET /v1/jobs/{id}/trace stitches both halves back together. nil
	// creates a private recorder (tracing is always on at the router; its
	// cost without a reader is a bounded ring of small structs).
	Tracer *trace.Recorder
}

// Router is the sharded serving tier's HTTP front end. It speaks the same
// /v1 wire API as a wloptd backend — clients cannot tell the difference —
// and routes each submission to the backend owning its spec digest on the
// consistent-hash ring, so repeat submissions and option sweeps land on
// already-warm plan caches. Reads follow the job-ID affinity map (with a
// pool-wide fan-out fallback), list fans in across every healthy backend,
// and watch streams proxy hop by hop with the same SSE frames.
type Router struct {
	cfg   Config
	pool  *Pool
	reg   *metrics.Registry
	jobs  *jobMap
	memo  *api.SpecMemo
	start time.Time
}

// New builds the router and its pool. Call Start to begin health probing
// and Handler (or Mount) for the HTTP surface; Close to stop.
func New(cfg Config) *Router {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.Version == "" {
		cfg.Version = api.ServerVersion
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.New()
	}
	if cfg.SpillWait <= 0 {
		cfg.SpillWait = 250 * time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.NewRecorder(trace.RecorderConfig{})
	}
	rt := &Router{
		cfg:   cfg,
		reg:   cfg.Registry,
		jobs:  newJobMap(jobMapSize),
		memo:  api.NewSpecMemo(cfg.Registry, "wloptr"),
		start: time.Now(),
	}
	api.RegisterBuildInfo(rt.reg, cfg.Version)
	pc := cfg.Pool
	pc.Log = cfg.Log
	userEject, userReadmit := pc.OnEject, pc.OnReadmit
	pc.OnEject = func(addr string, reason error) {
		rt.reg.Counter("wloptr_ejections_total", "Backends ejected from the pool.", "backend", addr).Inc()
		if userEject != nil {
			userEject(addr, reason)
		}
	}
	pc.OnReadmit = func(addr string) {
		rt.reg.Counter("wloptr_readmissions_total", "Backends readmitted to the pool.", "backend", addr).Inc()
		if userReadmit != nil {
			userReadmit(addr)
		}
	}
	rt.pool = NewPool(pc)
	for _, addr := range rt.pool.Ring().Addrs() {
		addr := addr
		rt.reg.GaugeFunc("wloptr_backend_healthy",
			"1 if the backend is admitted, 0 if ejected.",
			func() float64 {
				if rt.pool.Healthy(addr) {
					return 1
				}
				return 0
			}, "backend", addr)
		rt.reg.GaugeFunc("wloptr_backend_inflight",
			"Router-side outstanding requests per backend.",
			func() float64 { return float64(rt.pool.InFlight(addr)) }, "backend", addr)
	}
	return rt
}

// Pool exposes the router's backend pool (tests, embedders).
func (rt *Router) Pool() *Pool { return rt.pool }

// Start launches health probing; Close stops it.
func (rt *Router) Start() { rt.pool.Start() }
func (rt *Router) Close() { rt.pool.Close() }

// Mount attaches the wire API to the mux.
func (rt *Router) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", rt.instrument("healthz", rt.health))
	mux.HandleFunc("GET /v1/systems", rt.instrument("systems", rt.systems))
	mux.HandleFunc("POST /v1/jobs", rt.instrument("submit", rt.submit))
	mux.HandleFunc("GET /v1/jobs", rt.instrument("list", rt.list))
	mux.HandleFunc("GET /v1/jobs/{id}", rt.instrument("get", rt.get))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", rt.instrument("trace", rt.jobTrace))
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.instrument("cancel", rt.cancel))
	mux.Handle("GET /metrics", rt.reg.Handler())
	mux.HandleFunc("GET /debug/traces", rt.cfg.Tracer.ServeList)
	mux.HandleFunc("GET /debug/traces/{id}", rt.cfg.Tracer.ServeDetail)
}

// Handler returns a fresh mux with the router mounted.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	rt.Mount(mux)
	return mux
}

// ShardKey computes the consistent-hash routing key for a submission:
// the spec content digest for inline specs (format-insensitive — two
// spellings of the same system route identically), or the registry name
// for named submissions. Everything that shares a key shares plans, so
// it belongs on the same backend.
func ShardKey(req service.Request) (string, error) {
	if req.System != "" {
		return "system:" + req.System, nil
	}
	if req.Parsed != nil {
		return req.Parsed.Digest(), nil
	}
	d, err := req.Spec.Digest()
	if err != nil {
		return "", fmt.Errorf("%w: %v", service.ErrBadSpec, err)
	}
	return d, nil
}

func (rt *Router) submit(w http.ResponseWriter, r *http.Request) {
	body, err := api.ReadBody(w, r, rt.cfg.MaxBody)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", service.ErrBadRequest, err))
		return
	}
	// Parse before proxying: a bad spec is rejected at the edge with full
	// line/col detail, and a good one yields the shard key.
	req, err := rt.memo.ParseSubmitBody(body)
	if err != nil {
		writeErr(w, err)
		return
	}
	key, err := ShardKey(req)
	if err != nil {
		writeErr(w, err)
		return
	}

	ctx := r.Context()
	var deadline time.Time
	if h := r.Header.Get(api.DeadlineHeader); h != "" {
		ms, perr := strconv.ParseInt(h, 10, 64)
		if perr != nil {
			writeErr(w, fmt.Errorf("%w: %s %q is not unix milliseconds", service.ErrBadRequest, api.DeadlineHeader, h))
			return
		}
		deadline = time.UnixMilli(ms)
		if !time.Now().Before(deadline) {
			rt.rejected("deadline_expired")
			writeErr(w, fmt.Errorf("%w before routing: deadline passed %s ago",
				service.ErrDeadlineExceeded, time.Since(deadline).Round(time.Millisecond)))
			return
		}
		// Fold the deadline into the proxy context: SubmitBody re-derives
		// the header from it on every hop, and a deadline firing mid-proxy
		// cancels the hop instead of waiting out a doomed request.
		dctx, cancel := context.WithDeadline(ctx, deadline)
		defer cancel()
		ctx = dctx
	}

	var sawBusy bool
	var fullErr *api.Error // last backend queue_full verdict on the walk
	var fullAddr, owner string
	for attempt, addr := range rt.pool.Ring().Seq(key) {
		if attempt == 0 {
			owner = addr
		}
		out, apiErr := rt.proxySubmit(ctx, r, w, addr, attempt, body)
		if attempt == 0 && (out == submitBusy || out == submitQueueFull) {
			// Spill-after-delay: the owner holds this digest's warm plans,
			// so before proxying past it — a cold-cache build elsewhere —
			// give it a bounded grace period and one retry.
			out, apiErr = rt.spillWait(ctx, r, w, addr, body, deadline, out, apiErr)
			if out == submitBusy || out == submitQueueFull {
				reason := "owner_busy"
				if out == submitQueueFull {
					reason = "owner_queue_full"
				}
				rt.reg.Counter("wloptr_spills_total", "Submissions spilled past their saturated shard owner.", "reason", reason).Inc()
				rt.cfg.Log.Warn("spilling past saturated owner",
					"backend", addr, "reason", reason, "key", key)
			}
		}
		switch out {
		case submitDone:
			return
		case submitBusy:
			sawBusy = true // keep walking: a spill beats a rejection
		case submitQueueFull:
			fullErr, fullAddr = apiErr, addr
		}
	}
	if fullErr != nil {
		// Every reachable backend that answered said queue_full: propagate
		// the last verdict — it carries that backend's own drain-rate
		// Retry-After estimate.
		rt.rejected("backend_queue_full")
		w.Header().Set(BackendHeader, fullAddr)
		api.WriteError(w, fullErr)
		return
	}
	if sawBusy {
		rt.rejected("router_inflight_full")
		api.WriteError(w, &api.Error{
			Code:        api.CodeQueueFull,
			Message:     "all candidate backends at in-flight capacity",
			Status:      http.StatusTooManyRequests,
			RetryAfterS: rt.pool.RetryAfterHint(owner),
		})
		return
	}
	rt.rejected("no_backend")
	api.WriteError(w, &api.Error{
		Code:    api.CodeNoBackend,
		Message: "no healthy backend for shard",
		Status:  http.StatusServiceUnavailable,
	})
}

// submitOutcome classifies one proxied submit attempt.
type submitOutcome int

const (
	submitDone      submitOutcome = iota // response written; stop the walk
	submitBusy                           // router-side in-flight bound hit
	submitQueueFull                      // backend answered queue_full
	submitSkip                           // ejected, or transport failure
)

func (o submitOutcome) String() string {
	switch o {
	case submitDone:
		return "answered"
	case submitBusy:
		return "busy"
	case submitQueueFull:
		return "queue_full"
	}
	return "skip"
}

// proxySubmit runs one Acquire+submit attempt against addr. submitDone
// means the response has been written (success, an authoritative backend
// verdict, or a client-side failure); every other outcome leaves the
// response unwritten so the caller can keep walking the ring. The
// *api.Error accompanies submitQueueFull so the caller can propagate the
// backend's own verdict — with its drain-rate Retry-After — if the whole
// ring turns out to be saturated.
func (rt *Router) proxySubmit(ctx context.Context, r *http.Request, w http.ResponseWriter, addr string, attempt int, body []byte) (submitOutcome, *api.Error) {
	// One proxy span per ring attempt: the stitched trace shows the
	// failover walk (busy / ejected / transport) backend by backend.
	psp, pctx := trace.Start(ctx, "proxy")
	psp.SetAttr("backend", addr)
	psp.SetAttr("attempt", strconv.Itoa(attempt))
	cl, release, err := rt.pool.Acquire(addr)
	if err != nil {
		if errors.Is(err, ErrBackendBusy) {
			psp.SetAttr("outcome", "busy")
			psp.End()
			return submitBusy, nil
		}
		psp.SetAttr("outcome", "ejected")
		psp.End()
		return submitSkip, nil // fail over along the ring
	}
	rt.reg.Counter("wloptr_proxy_requests_total", "Requests proxied per backend.", "backend", addr).Inc()
	if attempt > 0 {
		// Proxying past the shard owner: the ring walk failed over.
		rt.reg.Counter("wloptr_proxy_retries_total", "Submissions proxied past the first ring position.", "backend", addr).Inc()
	}
	info, status, err := cl.SubmitBody(pctx, body)
	if err != nil {
		var apiErr *api.Error
		if errors.As(err, &apiErr) {
			psp.SetAttr("outcome", "backend_error")
			psp.SetAttr("code", apiErr.Code)
			psp.End()
			release(nil)
			if apiErr.Code == api.CodeQueueFull {
				// Backend-side saturation is a spill/propagate decision for
				// the caller, not an immediate answer: the next ring backend
				// may have room.
				return submitQueueFull, apiErr
			}
			// Any other backend answer is authoritative (bad options,
			// deadline_exceeded, ...) — propagate, don't spill.
			w.Header().Set(BackendHeader, addr)
			api.WriteError(w, apiErr)
			return submitDone, nil
		}
		// Client-side failure (disconnect or deadline mid-proxy): it says
		// nothing about the backend, for or against — return the slot
		// without a verdict, and skip the ring walk; retrying for a
		// vanished client would only duplicate work.
		if clientCaused(r, err) {
			psp.SetAttr("outcome", "client_gone")
			psp.End()
			release(errNoVerdict)
			writeErr(w, err)
			return submitDone, nil
		}
		// Transport failure: eject and try the next ring position.
		psp.SetAttr("outcome", "transport")
		psp.End()
		rt.reg.Counter("wloptr_proxy_failures_total", "Transport-level proxy failures per backend.", "backend", addr).Inc()
		release(err)
		return submitSkip, nil
	}
	psp.SetAttr("outcome", "ok")
	psp.SetAttr("job_id", info.ID)
	psp.End()
	release(nil)
	rt.jobs.put(info.ID, addr)
	rt.cfg.Log.Info("submit proxied",
		"job_id", info.ID, "backend", addr, "trace_id", info.TraceID,
		"attempt", attempt, "cache_hit", info.CacheHit)
	w.Header().Set(BackendHeader, addr)
	writeJSON(w, status, info)
	return submitDone, nil
}

// spillWait is the delay phase of spill-after-delay: the saturated shard
// owner gets SpillWait — clamped to a quarter of the job's remaining
// deadline when it has one — to free capacity, then one retry. The
// caller spills past it on anything but an answer. The wait is a single
// sleep rather than a poll: a poll would re-submit against a backend
// already reporting saturation.
func (rt *Router) spillWait(ctx context.Context, r *http.Request, w http.ResponseWriter, addr string, body []byte, deadline time.Time, prev submitOutcome, prevErr *api.Error) (submitOutcome, *api.Error) {
	wait := rt.cfg.SpillWait
	if !deadline.IsZero() {
		if rem := time.Until(deadline) / 4; rem < wait {
			wait = rem
		}
	}
	if wait <= 0 {
		return prev, prevErr // no budget left: spill immediately
	}
	sp, _ := trace.Start(ctx, "spill.wait")
	sp.SetAttr("backend", addr)
	sp.SetAttr("wait", wait.String())
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		// The deadline fired (or the client left) while we waited.
		sp.SetAttr("outcome", "client_gone")
		sp.End()
		writeErr(w, ctx.Err())
		return submitDone, nil
	}
	out, apiErr := rt.proxySubmit(ctx, r, w, addr, 0, body)
	sp.SetAttr("outcome", out.String())
	sp.End()
	return out, apiErr
}

func (rt *Router) rejected(reason string) {
	rt.reg.Counter("wloptr_rejected_total", "Requests rejected by the router.", "reason", reason).Inc()
}

// clientCaused reports whether a proxied-call failure originated on the
// client side of the router rather than at the backend. Proxied calls run
// under the inbound request's context, so a client disconnect or deadline
// collapses every in-flight call with context.Canceled — blaming the
// backend for that would let one impatient client eject the shard owner,
// and the failover walk would then eject the entire ring in one pass.
func clientCaused(r *http.Request, err error) bool {
	return r.Context().Err() != nil ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// locate finds the backend holding a job: the affinity map first, then a
// fan-out probe across healthy backends (map entry evicted, or the job
// predates this router instance). When the fan-out path identified the
// owner, the snapshot it fetched doing so is returned alongside, so get
// needn't re-fetch; a nil info means the affinity map answered and no
// snapshot was taken. A job whose mapped holder is ejected answers
// ErrNoBackend, which clients retry, not a not-found: the job exists.
func (rt *Router) locate(r *http.Request, id string) (string, *api.Client, *service.JobInfo, error) {
	owner, known := rt.jobs.get(id)
	if known && rt.pool.Healthy(owner) {
		return owner, rt.pool.Client(owner), nil, nil
	}
	var lastErr error = service.ErrNotFound
	if known {
		lastErr = ErrNoBackend
	}
	for _, addr := range rt.pool.Ring().Addrs() {
		if !rt.pool.Healthy(addr) {
			continue
		}
		cl := rt.pool.Client(addr)
		info, err := cl.Job(r.Context(), id)
		if err != nil {
			var apiErr *api.Error
			if errors.As(err, &apiErr) {
				continue // this backend doesn't know the job
			}
			if clientCaused(r, err) {
				return "", nil, nil, err // our client hung up: stop, blame nobody
			}
			rt.pool.ReportFailure(addr, err)
			lastErr = err
			continue
		}
		rt.jobs.put(id, addr)
		return addr, cl, info, nil
	}
	return "", nil, nil, lastErr
}

func (rt *Router) get(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	addr, cl, info, err := rt.locate(r, id)
	if err != nil {
		writeErr(w, err)
		return
	}
	if r.URL.Query().Get("watch") != "" {
		rt.watch(w, r, addr, cl, id)
		return
	}
	if info == nil {
		info, err = cl.Job(r.Context(), id)
		if err != nil {
			rt.proxyError(w, addr, err)
			return
		}
	}
	w.Header().Set(BackendHeader, addr)
	writeJSON(w, http.StatusOK, info)
}

// jobTrace proxies GET /v1/jobs/{id}/trace and stitches the two halves
// of the tree together: the backend returns its spans (HTTP handling,
// queue wait, plan, search, persist), and the router's recorder holds
// the proxy-side spans recorded under the same trace ID when the submit
// passed through — Merge interleaves them by start time so the caller
// sees one tree spanning both processes.
func (rt *Router) jobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	addr, cl, _, err := rt.locate(r, id)
	if err != nil {
		writeErr(w, err)
		return
	}
	in, err := cl.JobTrace(r.Context(), id)
	if err != nil {
		rt.proxyError(w, addr, err)
		return
	}
	if own, ok := rt.cfg.Tracer.Snapshot(in.TraceID); ok {
		in = trace.Merge(own, in)
	}
	w.Header().Set(BackendHeader, addr)
	writeJSON(w, http.StatusOK, in)
}

// watch proxies the backend's SSE stream hop by hop: each event the
// backend emits is re-framed with the same api.WriteSSE both tiers use,
// so a client watching through the router sees byte-identical frames.
func (rt *Router) watch(w http.ResponseWriter, r *http.Request, addr string, cl *api.Client, id string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, fmt.Errorf("streaming unsupported"))
		return
	}
	started := false
	err := cl.Watch(r.Context(), id, func(ev service.Event) bool {
		if !started {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
			w.Header().Set(BackendHeader, addr)
			w.WriteHeader(http.StatusOK)
			started = true
		}
		if api.WriteSSE(w, ev) != nil {
			return false // client hung up
		}
		flusher.Flush()
		return true
	})
	if err != nil && !started {
		rt.proxyError(w, addr, err)
	}
}

func (rt *Router) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	addr, cl, _, err := rt.locate(r, id)
	if err != nil {
		writeErr(w, err)
		return
	}
	info, err := cl.Cancel(r.Context(), id)
	if err != nil {
		rt.proxyError(w, addr, err)
		return
	}
	w.Header().Set(BackendHeader, addr)
	writeJSON(w, http.StatusAccepted, info)
}

func (rt *Router) systems(w http.ResponseWriter, r *http.Request) {
	var lastErr error = ErrNoBackend
	for _, addr := range rt.pool.Ring().Addrs() {
		if !rt.pool.Healthy(addr) {
			continue
		}
		list, err := rt.pool.Client(addr).Systems(r.Context())
		if err != nil {
			var apiErr *api.Error
			if !errors.As(err, &apiErr) {
				if clientCaused(r, err) {
					writeErr(w, err)
					return
				}
				rt.pool.ReportFailure(addr, err)
			}
			lastErr = err
			continue
		}
		w.Header().Set(BackendHeader, addr)
		writeJSON(w, http.StatusOK, list)
		return
	}
	rt.proxyError(w, "", lastErr)
}

// listCursor is the router's composite pagination cursor: one backend
// cursor per address, serialized as base64(JSON). Each backend paginates
// by its own monotonic job sequence; the router merges the streams.
type listCursor map[string]string

// encodeCursor never returns "" — even an empty map encodes ("e30"), so a
// partial page keeps a resumable cursor when no stream was consumed yet.
func encodeCursor(c listCursor) string {
	data, _ := json.Marshal(c)
	return base64.RawURLEncoding.EncodeToString(data)
}

func decodeCursor(raw string) (listCursor, error) {
	if raw == "" {
		return listCursor{}, nil
	}
	data, err := base64.RawURLEncoding.DecodeString(raw)
	if err == nil {
		var c listCursor
		if err = json.Unmarshal(data, &c); err == nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: bad cursor %q", service.ErrBadRequest, raw)
}

// list fans in GET /v1/jobs across every healthy backend: each backend
// returns one page from its own cursor; the router k-way merges them by
// submission time and returns the first `limit`, with a composite cursor
// recording how far into each backend's stream it consumed.
func (rt *Router) list(w http.ResponseWriter, r *http.Request) {
	q, err := api.ParseListQuery(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	cursors, err := decodeCursor(q.Cursor)
	if err != nil {
		writeErr(w, err)
		return
	}
	limit := q.Limit
	if limit <= 0 {
		limit = service.DefaultListLimit
	}
	if limit > service.MaxListLimit {
		limit = service.MaxListLimit
	}

	type stream struct {
		addr string
		jobs []*service.JobInfo
		more bool // backend has pages beyond what it returned
		used int  // jobs consumed by the merge
	}
	var streams []*stream
	skipped := false // pooled backends that could not be consulted
	for _, addr := range rt.pool.Ring().Addrs() {
		if !rt.pool.Healthy(addr) {
			skipped = true
			continue
		}
		page, err := rt.pool.Client(addr).Jobs(r.Context(), service.ListQuery{
			Limit:  limit,
			Cursor: cursors[addr],
			State:  q.State,
		})
		if err != nil {
			var apiErr *api.Error
			if errors.As(err, &apiErr) {
				rt.proxyError(w, addr, err) // e.g. bad state filter: propagate
				return
			}
			if clientCaused(r, err) {
				writeErr(w, err)
				return
			}
			rt.pool.ReportFailure(addr, err)
			skipped = true
			continue
		}
		streams = append(streams, &stream{addr: addr, jobs: page.Jobs, more: page.NextCursor != ""})
	}

	// K-way merge by submission time (job IDs are per-backend, so time is
	// the only cluster-wide order there is).
	merged := make([]*service.JobInfo, 0, limit)
	for len(merged) < limit {
		best := -1
		for i, s := range streams {
			if s.used >= len(s.jobs) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			a, b := s.jobs[s.used], streams[best].jobs[streams[best].used]
			if a.Submitted.Before(b.Submitted) ||
				(a.Submitted.Equal(b.Submitted) && a.ID < b.ID) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		s := streams[best]
		merged = append(merged, s.jobs[s.used])
		s.used++
	}

	next := listCursor{}
	for k, v := range cursors {
		next[k] = v
	}
	// A skipped backend (ejected, or its fetch failed) still holds unread
	// jobs this page cannot see: mark the page partial AND keep the cursor
	// alive, so a paginating client neither terminates early nor mistakes
	// the merged prefix for the complete listing.
	more := skipped
	for _, s := range streams {
		if s.used > 0 {
			next[s.addr] = s.jobs[s.used-1].ID
		}
		if s.used < len(s.jobs) || s.more {
			more = true
		}
	}
	page := service.JobPage{Jobs: merged, Partial: skipped}
	if more {
		page.NextCursor = encodeCursor(next)
	}
	writeJSON(w, http.StatusOK, page)
}

func (rt *Router) health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.Health{
		Status:   "ok",
		Version:  rt.cfg.Version,
		UptimeS:  time.Since(rt.start).Seconds(),
		Addr:     rt.cfg.Addr,
		Backends: rt.pool.Healthz(),
	})
}

// proxyError relays a backend failure: API errors pass through verbatim
// (envelope, status, Retry-After), transport errors become 502-shaped
// internal errors.
func (rt *Router) proxyError(w http.ResponseWriter, addr string, err error) {
	if addr != "" {
		w.Header().Set(BackendHeader, addr)
	}
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		api.WriteError(w, apiErr)
		return
	}
	writeErr(w, err)
}

func writeErr(w http.ResponseWriter, err error) {
	e := api.ErrorFor(err)
	if errors.Is(err, ErrNoBackend) {
		e.Code, e.Status = api.CodeNoBackend, http.StatusServiceUnavailable
	}
	api.WriteError(w, e)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// instrument wraps a handler with the wloptr_ request counter, latency
// histogram, and a root trace span under the given route label. The span
// joins any inbound X-Wlopt-Trace and flows out on proxied calls via the
// request context, so the backend's spans land in the same tree. healthz
// stays untraced — probe noise would churn the recorder's ring.
func (rt *Router) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := rt.reg.Histogram("wloptr_http_request_duration_seconds",
		"Router HTTP request latency by route.", nil, "route", route)
	traced := route != "healthz"
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		var sp *trace.Span
		if traced {
			id, parent, _ := trace.Extract(r.Header)
			tr := rt.cfg.Tracer.StartTrace(id)
			sp = tr.StartSpanRemote("router."+route, parent)
			w.Header().Set(trace.Header, tr.ID())
			r = r.WithContext(trace.With(r.Context(), sp))
		}
		h(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		sp.SetAttr("code", strconv.Itoa(code))
		sp.End()
		rt.reg.Counter("wloptr_http_requests_total",
			"Router HTTP requests by route and status.",
			"route", route, "code", strconv.Itoa(code)).Inc()
		hist.Observe(time.Since(start).Seconds())
	}
}

// statusWriter captures the response code, passing Flush through so the
// SSE watch proxy keeps streaming behind it.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// jobMap is the bounded job-ID → backend affinity map, evicting FIFO.
// Reads for evicted entries fall back to the fan-out path in locate, so
// eviction costs a probe round, never correctness.
type jobMap struct {
	mu    sync.Mutex
	m     map[string]string
	order []string
	next  int
}

func newJobMap(size int) *jobMap {
	return &jobMap{m: make(map[string]string, size), order: make([]string, size)}
}

func (jm *jobMap) put(id, addr string) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if _, ok := jm.m[id]; !ok {
		if old := jm.order[jm.next]; old != "" {
			delete(jm.m, old)
		}
		jm.order[jm.next] = id
		jm.next = (jm.next + 1) % len(jm.order)
	}
	jm.m[id] = addr
}

func (jm *jobMap) get(id string) (string, bool) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	addr, ok := jm.m[id]
	return addr, ok
}
