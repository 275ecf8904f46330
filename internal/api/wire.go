// Package api is the versioned wire contract of the word-length
// optimization serving tier, shared by every process that speaks it: the
// wloptd backend daemon mounts the Server handlers, the wloptr router and
// the loadgen load generator drive backends through the typed Client, and
// the end-to-end tests exercise both sides of the same types instead of
// hand-rolling HTTP calls per call site.
//
// The HTTP surface (all paths under the /v1 prefix except the operational
// endpoints):
//
//	POST   /v1/jobs           submit a job; 202 queued, 200 cache hit
//	GET    /v1/jobs           list jobs: ?limit= &cursor= &state=
//	GET    /v1/jobs/{id}      job snapshot; ?watch=1 streams SSE progress
//	DELETE /v1/jobs/{id}      cooperative cancel
//	GET    /v1/systems        registry systems accepted by name
//	GET    /healthz           liveness: version, uptime_s, addr, stats
//	GET    /metrics           Prometheus text exposition
//
// Every non-2xx response carries the uniform JSON error envelope
//
//	{"error": {"code": "...", "message": "...", ...}}
//
// with a machine-readable code (see the Code constants); spec parse
// failures additionally carry the 1-based line and col of the offending
// byte. 429 responses carry a Retry-After header.
package api

import (
	"fmt"

	"repro/internal/service"
)

// ServerVersion identifies the serving-tier build on /healthz; bump it
// alongside wire-visible behavior changes.
const ServerVersion = "wlopt/10"

// DeadlineHeader carries a job's absolute deadline on submit, as unix
// milliseconds. Absolute rather than relative so the value survives any
// number of proxy hops, queues and retries without re-encoding: every
// hop reads the same instant. The backend converts whatever remains of
// it at acceptance into the job's deadline_ms; when the body also sets
// options.deadline_ms, the earlier of the two wins.
const DeadlineHeader = "X-Wlopt-Deadline"

// Error codes carried in the error envelope. Clients switch on these, not
// on message text.
const (
	// CodeBadRequest: the request is malformed (JSON, missing fields,
	// invalid options).
	CodeBadRequest = "bad_request"
	// CodeBadSpec: the system spec failed to parse or validate; Line/Col
	// locate syntax errors.
	CodeBadSpec = "bad_spec"
	// CodeNotFound: unknown job ID or system name.
	CodeNotFound = "not_found"
	// CodeQueueFull: the backend's pending queue (or the router's
	// per-backend in-flight bound) is at capacity; retry after the
	// Retry-After interval.
	CodeQueueFull = "queue_full"
	// CodeUnavailable: the service is shutting down.
	CodeUnavailable = "unavailable"
	// CodeNoBackend: the router has no healthy backend for the request.
	CodeNoBackend = "no_backend"
	// CodeDeadlineExceeded: the job's deadline elapsed before a worker
	// could start it — the queue shed it rather than compute an answer
	// the caller had already stopped waiting for. A deadline that fires
	// mid-search is not an error: the job finishes with a degraded
	// best-so-far result instead.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeInternal: unexpected server-side failure.
	CodeInternal = "internal"
)

// Error is the wire error: the body of every non-2xx response, wrapped in
// ErrorEnvelope. It implements error, so Client methods return it
// directly and callers can errors.As it back out.
type Error struct {
	// Code is one of the Code constants.
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
	// Line and Col locate spec syntax errors (1-based; 0 = not positional).
	Line int `json:"line,omitempty"`
	Col  int `json:"col,omitempty"`

	// Status is the HTTP status the error travelled with. Not serialized:
	// the status line already carries it.
	Status int `json:"-"`
	// RetryAfterS is the parsed Retry-After hint on 429s, in seconds.
	// Not serialized: the Retry-After header carries it.
	RetryAfterS int `json:"-"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// ErrorEnvelope is the uniform non-2xx response body.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// Health is the GET /healthz response. Stats is set by backends,
// Backends by the router — each side reports its own shape under the
// same envelope, so one probe loop handles both.
type Health struct {
	Status string `json:"status"`
	// Version is the serving build (ServerVersion unless overridden).
	Version string `json:"version"`
	// UptimeS is seconds since the process started serving.
	UptimeS float64 `json:"uptime_s"`
	// Addr is the listen address the process was configured with, so a
	// prober (or the cluster smoke test) can assert which node answered.
	Addr string `json:"addr"`
	// Stats is the backend job-manager census (backends only).
	Stats *service.Stats `json:"stats,omitempty"`
	// Backends is the router's pool view (router only).
	Backends []BackendHealth `json:"backends,omitempty"`
}

// BackendHealth is the router's view of one pooled backend.
type BackendHealth struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	// InFlight is the number of requests the router currently has
	// outstanding against this backend; InFlightCap its admission bound.
	InFlight    int `json:"in_flight"`
	InFlightCap int `json:"in_flight_cap"`
	// Requests and Failures count proxied requests and transport-level
	// failures since boot.
	Requests int64 `json:"requests"`
	Failures int64 `json:"failures"`
	// ConsecFailures counts failures since the last success (probe or
	// proxied call); it resets to zero on any success, so a non-zero value
	// means the backend is failing right now, not that it ever failed. It
	// is the count the router ejects the backend on.
	ConsecFailures int `json:"consec_failures"`
	// QueueLen, QueueCap and RetryAfterS mirror the backend's own queue
	// census from its last successful health probe: the occupancy signal
	// behind the router's spill decisions, and the backend's drain-rate
	// Retry-After estimate the router relays on 429s. All zero until a
	// probe has succeeded.
	QueueLen    int `json:"queue_len"`
	QueueCap    int `json:"queue_cap"`
	RetryAfterS int `json:"retry_after_s"`
	// LastError is the most recent probe or proxy failure, if any.
	LastError string `json:"last_error,omitempty"`
}
