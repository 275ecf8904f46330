package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/trace"
)

// ServerConfig tunes the mounted API surface.
type ServerConfig struct {
	// MaxBody bounds request bodies; <= 0 selects 1 MiB.
	MaxBody int64
	// Version is reported on /healthz; empty selects ServerVersion.
	Version string
	// Addr is the advertised listen address, reported on /healthz so
	// probers can assert which node answered.
	Addr string
	// Metrics receives the server's instrumentation. nil creates a fresh
	// set; pass NewServerMetrics' result when the manager's OnJobDone
	// hook should feed the job latency histograms.
	Metrics *ServerMetrics
	// Tracer, when non-nil, opens a root span per API request (joining
	// an inbound X-Wlopt-Trace header), exposes GET /v1/jobs/{id}/trace
	// and /debug/traces, and stamps the trace ID on every response. Pass
	// the same recorder as service.Config.Tracer so job spans land in
	// the request's trace.
	Tracer *trace.Recorder
}

// Server mounts the versioned wire API over a service.Manager. Both the
// daemon (cmd/wloptd) and the in-process test harnesses use it; the
// router (internal/router) serves the same envelope conventions against
// its own handler set.
type Server struct {
	mgr   *service.Manager
	cfg   ServerConfig
	met   *ServerMetrics
	memo  *SpecMemo
	start time.Time

	statsMu sync.Mutex
	statsAt time.Time
	stats   service.Stats
}

// NewServer wraps the manager. Call Mount to attach the routes to a mux.
func NewServer(mgr *service.Manager, cfg ServerConfig) *Server {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.Version == "" {
		cfg.Version = ServerVersion
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewServerMetrics(nil)
	}
	s := &Server{mgr: mgr, cfg: cfg, met: cfg.Metrics, start: time.Now()}
	s.memo = NewSpecMemo(s.met.Registry(), "wlopt")
	s.met.bindStats(s.cachedStats)
	RegisterBuildInfo(s.met.Registry(), cfg.Version)
	return s
}

// Mount attaches every route to the mux.
func (s *Server) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.health))
	mux.HandleFunc("GET /v1/systems", s.instrument("systems", s.systems))
	mux.HandleFunc("POST /v1/jobs", s.instrument("submit", s.submit))
	mux.HandleFunc("GET /v1/jobs", s.instrument("list", s.list))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("get", s.get))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.instrument("trace", s.jobTrace))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("cancel", s.cancel))
	mux.Handle("GET /metrics", s.met.Registry().Handler())
	if s.cfg.Tracer != nil {
		mux.HandleFunc("GET /debug/traces", s.cfg.Tracer.ServeList)
		mux.HandleFunc("GET /debug/traces/{id}", s.cfg.Tracer.ServeDetail)
	}
}

// RegisterBuildInfo exposes a constant-1 wlopt_build_info gauge labelled
// with the wire version and Go runtime, so scrapes can tell which build
// answers after a rolling restart. Both daemons register it; repeat
// registrations of the same identity are no-ops.
func RegisterBuildInfo(reg *metrics.Registry, version string) {
	reg.GaugeFunc("wlopt_build_info",
		"Build identity; constant 1, labelled by wire version and Go runtime.",
		func() float64 { return 1 },
		"version", version, "go", runtime.Version())
}

// Handler returns a fresh mux with the API mounted — the one-call path
// for tests and embedders.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Mount(mux)
	return mux
}

// cachedStats memoizes the manager census briefly: a /metrics scrape
// reads a dozen stats-backed gauges, and each Stats() call walks the
// whole retained-job table.
func (s *Server) cachedStats() service.Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if time.Since(s.statsAt) > 250*time.Millisecond {
		s.stats = s.mgr.Stats()
		s.statsAt = time.Now()
	}
	return s.stats
}

// ErrorFor maps an error onto the wire Error: service sentinels to
// machine codes and HTTP statuses, spec position errors to bad_spec with
// line/col.
func ErrorFor(err error) *Error {
	e := &Error{Code: CodeInternal, Message: err.Error(), Status: http.StatusInternalServerError}
	switch {
	case errors.Is(err, service.ErrQueueFull):
		// The default Retry-After is the conservative floor; the submit
		// handler overwrites it with the manager's drain-rate estimate.
		e.Code, e.Status, e.RetryAfterS = CodeQueueFull, http.StatusTooManyRequests, 1
	case errors.Is(err, service.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		// Both the service's queue-shed sentinel and a raw context deadline
		// (a proxy hop or wait cancelled mid-flight) speak the same code.
		e.Code, e.Status = CodeDeadlineExceeded, http.StatusGatewayTimeout
	case errors.Is(err, service.ErrClosed):
		e.Code, e.Status = CodeUnavailable, http.StatusServiceUnavailable
	case errors.Is(err, service.ErrNotFound):
		e.Code, e.Status = CodeNotFound, http.StatusNotFound
	case errors.Is(err, service.ErrBadSpec):
		e.Code, e.Status = CodeBadSpec, http.StatusBadRequest
	case errors.Is(err, service.ErrBadRequest):
		e.Code, e.Status = CodeBadRequest, http.StatusBadRequest
	}
	var pe *spec.PosError
	if errors.As(err, &pe) {
		e.Code = CodeBadSpec
		if e.Status == http.StatusInternalServerError {
			e.Status = http.StatusBadRequest
		}
		e.Line, e.Col = pe.Line, pe.Col
	}
	return e
}

// WriteError emits the uniform error envelope (and Retry-After on 429s).
func WriteError(w http.ResponseWriter, e *Error) {
	if e.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterS))
	}
	writeJSON(w, e.Status, ErrorEnvelope{Error: e})
}

func writeErr(w http.ResponseWriter, err error) {
	WriteError(w, ErrorFor(err))
}

// writeJSON emits a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	st := s.mgr.Stats()
	writeJSON(w, http.StatusOK, Health{
		Status:  "ok",
		Version: s.cfg.Version,
		UptimeS: time.Since(s.start).Seconds(),
		Addr:    s.cfg.Addr,
		Stats:   &st,
	})
}

func (s *Server) systems(w http.ResponseWriter, r *http.Request) {
	list, err := s.mgr.Systems()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := ReadBody(w, r, s.cfg.MaxBody)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", service.ErrBadRequest, err))
		return
	}
	req, err := s.memo.ParseSubmitBody(body)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := ApplyDeadlineHeader(&req, r.Header.Get(DeadlineHeader)); err != nil {
		writeErr(w, err)
		return
	}
	info, err := s.mgr.SubmitCtx(r.Context(), req)
	if err != nil {
		e := ErrorFor(err)
		if e.Code == CodeQueueFull {
			// Replace the constant floor with the drain-rate estimate: how
			// long, at the recently observed pop rate, until the queue has
			// room again.
			e.RetryAfterS = s.mgr.RetryAfter()
		}
		WriteError(w, e)
		return
	}
	status := http.StatusAccepted
	if info.CacheHit {
		status = http.StatusOK
	}
	writeJSON(w, status, info)
}

// jobTrace serves GET /v1/jobs/{id}/trace: the job's recorded span tree.
// 404s cover an unknown job, a server without tracing, and a trace
// already evicted from the recorder's ring.
func (s *Server) jobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, err := s.mgr.Get(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	if s.cfg.Tracer == nil || info.TraceID == "" {
		writeErr(w, fmt.Errorf("%w: no trace recorded for job %q", service.ErrNotFound, id))
		return
	}
	ti, ok := s.cfg.Tracer.Snapshot(info.TraceID)
	if !ok {
		writeErr(w, fmt.Errorf("%w: trace %s evicted", service.ErrNotFound, info.TraceID))
		return
	}
	writeJSON(w, http.StatusOK, ti)
}

// ApplyDeadlineHeader folds an X-Wlopt-Deadline header (absolute unix
// milliseconds) into the request's options.deadline_ms: the remaining
// time wins when it is shorter than (or the only source of) the body's
// own deadline. A header already in the past fails with
// ErrDeadlineExceeded before the job is ever accepted — the fastest
// possible fail-fast. The router reuses this when it terminates a
// deadline locally; a proxied submit just forwards the header.
func ApplyDeadlineHeader(req *service.Request, header string) error {
	if header == "" {
		return nil
	}
	ms, err := strconv.ParseInt(header, 10, 64)
	if err != nil {
		return fmt.Errorf("%w: bad %s %q: want absolute unix milliseconds", service.ErrBadRequest, DeadlineHeader, header)
	}
	remaining := time.Until(time.UnixMilli(ms))
	if remaining <= 0 {
		return fmt.Errorf("%w before submission: deadline passed %s ago", service.ErrDeadlineExceeded, (-remaining).Round(time.Millisecond))
	}
	remMS := int64(remaining / time.Millisecond)
	if remMS < 1 {
		remMS = 1
	}
	if req.Options.DeadlineMS == 0 || remMS < req.Options.DeadlineMS {
		req.Options.DeadlineMS = remMS
	}
	return nil
}

// ReadBody reads r's body, failing once it passes maxBody bytes. A body
// that declares a length within the limit is read into a buffer of
// exactly that length; a chunked one, or one declaring more than the
// limit, is read through a growing buffer that stops at the limit, so a
// header never makes the server allocate more than maxBody.
func ReadBody(w http.ResponseWriter, r *http.Request, maxBody int64) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	defer r.Body.Close()
	if n := r.ContentLength; n >= 0 && n <= maxBody {
		body := make([]byte, n)
		if _, err := io.ReadFull(r.Body, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	return io.ReadAll(r.Body)
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	q, err := ParseListQuery(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	page, err := s.mgr.ListPage(q)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, page)
}

// ParseListQuery extracts ?limit= &cursor= &state= from a list request.
func ParseListQuery(r *http.Request) (service.ListQuery, error) {
	var q service.ListQuery
	vals := r.URL.Query()
	if raw := vals.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return q, fmt.Errorf("%w: bad limit %q", service.ErrBadRequest, raw)
		}
		q.Limit = n
	}
	q.Cursor = vals.Get("cursor")
	q.State = service.JobState(vals.Get("state"))
	return q, nil
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.URL.Query().Get("watch") != "" {
		s.watch(w, r, id)
		return
	}
	info, err := s.mgr.Get(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// watchFrameInterval is the least time between two progress frames of one
// watch stream.
const watchFrameInterval = 50 * time.Millisecond

// watch streams the job's progress as server-sent events: the job's
// current state at once, then at most one progress frame per
// watchFrameInterval carrying the latest step, then the terminal event
// the moment it arrives. The stream ends after the terminal event, or
// when the client disconnects.
func (s *Server) watch(w http.ResponseWriter, r *http.Request, id string) {
	ch, stop, err := s.mgr.Watch(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer stop()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	var (
		next    time.Time        // earliest instant the next progress frame may go
		pending service.Event    // latest event held back while tickC is set
		tickC   <-chan time.Time // fires at next to release pending; nil when none is held
	)
	// send writes one frame and reports whether the stream goes on.
	send := func(ev service.Event) bool {
		if WriteSSE(w, ev) != nil {
			return false
		}
		flusher.Flush()
		next = time.Now().Add(watchFrameInterval)
		return !ev.Terminal
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if ev.Terminal || (tickC == nil && !time.Now().Before(next)) {
				if !send(ev) {
					return
				}
				continue
			}
			pending = ev
			if tickC == nil {
				tickC = time.After(time.Until(next))
			}
		case <-tickC:
			tickC = nil
			if !send(pending) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// WriteSSE renders one job event as a server-sent event frame. The
// router's watch proxy reuses it so both hops emit the same frames.
func WriteSSE(w io.Writer, ev service.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	return err
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, info)
}

// instrument wraps a handler with request counting, latency observation
// and — when a tracer is configured — a root span per request under the
// given route label. The span joins an inbound X-Wlopt-Trace header
// (parenting under the sender's span) and the trace ID is echoed on the
// response so callers can fetch the tree later. Health probes are
// deliberately untraced: they would churn the recent-trace ring with
// noise traces every few hundred milliseconds.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.met.requestDuration(route)
	traced := s.cfg.Tracer != nil && route != "healthz"
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		var sp *trace.Span
		if traced {
			id, parent, _ := trace.Extract(r.Header)
			tr := s.cfg.Tracer.StartTrace(id)
			sp = tr.StartSpanRemote("http."+route, parent)
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
		s.met.requestDone(route, code)
		hist.Observe(time.Since(start).Seconds())
	}
}

// statusWriter captures the response code for instrumentation, passing
// Flush through so SSE streaming keeps working behind it.
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

// ServerMetrics is the backend instrumentation set: job latency
// histograms (fed by service.Config.OnJobDone), HTTP request counters and
// latencies, and scrape-time gauges over the manager census.
type ServerMetrics struct {
	reg *metrics.Registry

	bindOnce sync.Once
}

// NewServerMetrics builds the instrumentation set on the given registry
// (nil creates one). Wire ObserveJob into service.Config.OnJobDone before
// service.New, then hand the same ServerMetrics to ServerConfig.Metrics.
func NewServerMetrics(reg *metrics.Registry) *ServerMetrics {
	if reg == nil {
		reg = metrics.New()
	}
	return &ServerMetrics{reg: reg}
}

// Registry exposes the underlying registry (the /metrics handler).
func (m *ServerMetrics) Registry() *metrics.Registry { return m.reg }

// ObserveJob feeds one terminal job into the latency histograms; pass it
// as service.Config.OnJobDone.
func (m *ServerMetrics) ObserveJob(info *service.JobInfo) {
	run := 0.0
	if info.Started != nil && info.Finished != nil {
		run = info.Finished.Sub(*info.Started).Seconds()
	} else if info.Finished != nil {
		// Cache hits never start a worker; their latency is the submit
		// round trip itself.
		run = info.Finished.Sub(info.Submitted).Seconds()
	}
	m.reg.Histogram("wlopt_job_duration_seconds",
		"Search wall time per job by terminal state.", nil,
		"outcome", string(info.State)).Observe(run)
	if info.Started != nil {
		// Queue pressure: submitted→started wait for jobs that reached a
		// worker (cache hits and queue-cancelled jobs never start).
		m.reg.Histogram("wlopt_job_queue_wait_seconds",
			"Queue wait (submission to worker pickup) per executed job.", nil).
			Observe(info.Started.Sub(info.Submitted).Seconds())
	}
	m.reg.Counter("wlopt_jobs_terminal_total",
		"Jobs reaching a terminal state.", "outcome", string(info.State)).Inc()
}

// bindStats registers the census-backed gauges once, reading through the
// server's stats cache.
func (m *ServerMetrics) bindStats(stats func() service.Stats) {
	m.bindOnce.Do(func() {
		gauges := []struct {
			name, help string
			get        func(service.Stats) float64
		}{
			{"wlopt_queue_depth", "Jobs waiting for a worker.", func(s service.Stats) float64 { return float64(s.QueueLen) }},
			{"wlopt_queue_capacity", "Pending-queue bound.", func(s service.Stats) float64 { return float64(s.QueueCap) }},
			// queue_len/queue_cap alias depth/capacity under the names the
			// /healthz census and the router's occupancy logic use, so a
			// dashboard joining scrape to probe never translates names.
			{"wlopt_queue_len", "Jobs waiting for a worker (alias of wlopt_queue_depth, named as in the /healthz census).", func(s service.Stats) float64 { return float64(s.QueueLen) }},
			{"wlopt_queue_cap", "Pending-queue bound (alias of wlopt_queue_capacity, named as in the /healthz census).", func(s service.Stats) float64 { return float64(s.QueueCap) }},
			{"wlopt_retry_after_seconds", "Drain-rate estimate of seconds until the pending queue has room.", func(s service.Stats) float64 { return float64(s.RetryAfterS) }},
			{"wlopt_jobs_running", "Jobs currently executing.", func(s service.Stats) float64 { return float64(s.Running) }},
			{"wlopt_watchers", "Live event subscribers.", func(s service.Stats) float64 { return float64(s.Watchers) }},
			{"wlopt_result_cache_entries", "Result cache population.", func(s service.Stats) float64 { return float64(s.ResultCacheLen) }},
			{"wlopt_graph_cache_entries", "Graph cache population.", func(s service.Stats) float64 { return float64(s.GraphCacheLen) }},
		}
		for _, g := range gauges {
			get := g.get
			m.reg.GaugeFunc(g.name, g.help, func() float64 { return get(stats()) })
		}
		counters := []struct {
			name, help string
			get        func(service.Stats) float64
		}{
			{"wlopt_jobs_submitted_total", "Jobs ever submitted.", func(s service.Stats) float64 { return float64(s.Submitted) }},
			{"wlopt_cache_hits_total", "Submissions answered from the result cache.", func(s service.Stats) float64 { return float64(s.CacheHits) }},
			{"wlopt_coalesced_total", "Submissions coalesced onto an in-flight job.", func(s service.Stats) float64 { return float64(s.Coalesced) }},
			{"wlopt_plan_builds_total", "Engine plans built from scratch.", func(s service.Stats) float64 { return float64(s.PlanBuilds) }},
			{"wlopt_plan_restores_total", "Engine plans restored from snapshots.", func(s service.Stats) float64 { return float64(s.PlanRestores) }},
			{"wlopt_jobs_recovered_total", "Journaled jobs recovered at boot.", func(s service.Stats) float64 { return float64(s.JobsRecovered) }},
			{"wlopt_deadline_expired_total", "Jobs shed because their deadline elapsed while still waiting.", func(s service.Stats) float64 { return float64(s.DeadlineExpired) }},
			{"wlopt_degraded_total", "Searches truncated by a deadline and answered best-so-far.", func(s service.Stats) float64 { return float64(s.Degraded) }},
			{"wlopt_promotions_shed_total", "Promoted follower cohorts shed on a full queue at leader settle.", func(s service.Stats) float64 { return float64(s.PromotionsShed) }},
		}
		for _, c := range counters {
			get := c.get
			m.reg.CounterFunc(c.name, c.help, func() float64 { return get(stats()) })
		}
	})
}

func (m *ServerMetrics) requestDuration(route string) *metrics.Histogram {
	return m.reg.Histogram("wlopt_http_request_duration_seconds",
		"HTTP request latency by route.", nil, "route", route)
}

func (m *ServerMetrics) requestDone(route string, code int) {
	m.reg.Counter("wlopt_http_requests_total",
		"HTTP requests by route and status.",
		"route", route, "code", strconv.Itoa(code)).Inc()
}
