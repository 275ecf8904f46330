package fault

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// TransportConfig tunes an injecting Transport. All probabilities are in
// [0, 1]; zero disables that fault class.
type TransportConfig struct {
	// Seed makes the fault sequence reproducible.
	Seed int64
	// ErrorRate fails the call outright with ErrInjected — the shape of a
	// connection reset or refused dial; the request may or may not have
	// reached the server (this transport never sends it, the worst case
	// for an at-most-once caller).
	ErrorRate float64
	// LatencyRate delays the call by Latency before sending it.
	LatencyRate float64
	Latency     time.Duration
	// BlackholeRate hangs the call until its context expires — the shape
	// of a silently dropped packet with no RST.
	BlackholeRate float64
	// Match restricts injection to requests it returns true for;
	// non-matching requests pass straight through (uncounted, and without
	// consuming randomness, so the fault sequence over matched calls is
	// unchanged by unmatched traffic). nil matches everything. A Match on
	// the URL path makes a backend flap selectively — failing proxied
	// /v1/jobs calls while answering /healthz probes — the shape that
	// gets the router to eject it on every failure and readmit it on the
	// probes that follow.
	Match func(*http.Request) bool
	// Next performs the real calls; nil selects http.DefaultTransport.
	Next http.RoundTripper
}

// TransportStats counts what a Transport injected.
type TransportStats struct {
	Calls      int64
	Errors     int64
	Delays     int64
	Blackholes int64
}

// Transport is a fault-injecting http.RoundTripper. Wrap it in an
// http.Client and hand that to api.NewClient or router.PoolConfig:
//
//	hc := &http.Client{Transport: fault.NewTransport(fault.TransportConfig{
//		Seed: 1, ErrorRate: 0.1,
//	})}
type Transport struct {
	cfg TransportConfig
	src *source

	calls      atomic.Int64
	errs       atomic.Int64
	delays     atomic.Int64
	blackholes atomic.Int64
}

// NewTransport builds the round tripper.
func NewTransport(cfg TransportConfig) *Transport {
	if cfg.Next == nil {
		cfg.Next = http.DefaultTransport
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 50 * time.Millisecond
	}
	return &Transport{cfg: cfg, src: newSource(cfg.Seed)}
}

// Stats snapshots the injection counters.
func (t *Transport) Stats() TransportStats {
	return TransportStats{
		Calls:      t.calls.Load(),
		Errors:     t.errs.Load(),
		Delays:     t.delays.Load(),
		Blackholes: t.blackholes.Load(),
	}
}

// RoundTrip draws latency, error and black-hole decisions in that fixed
// order, then forwards the surviving call to the wrapped transport.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.cfg.Match != nil && !t.cfg.Match(req) {
		return t.cfg.Next.RoundTrip(req)
	}
	t.calls.Add(1)
	if t.src.hit(t.cfg.LatencyRate) {
		t.delays.Add(1)
		timer := time.NewTimer(t.cfg.Latency)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	if t.src.hit(t.cfg.ErrorRate) {
		t.errs.Add(1)
		return nil, fmt.Errorf("%w (%s %s)", ErrInjected, req.Method, req.URL.Path)
	}
	if t.src.hit(t.cfg.BlackholeRate) {
		t.blackholes.Add(1)
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	return t.cfg.Next.RoundTrip(req)
}
