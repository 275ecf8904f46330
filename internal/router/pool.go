package router

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/service"
)

// Pool state errors, mapped by the router to wire codes: ErrNoBackend →
// 503 no_backend, ErrBackendBusy → 429 queue_full (+ Retry-After).
var (
	ErrNoBackend   = errors.New("no healthy backend")
	ErrBackendBusy = errors.New("backend at in-flight capacity")
)

// errNoVerdict, handed to an Acquire release, returns the slot without
// judging the backend: the request ended on its client's side (a hang-up
// or a deadline), which says nothing about the backend's health.
var errNoVerdict = errors.New("request ended by its client")

// PoolConfig configures the health-checked backend set.
type PoolConfig struct {
	// Backends are the wloptd base URLs ("http://host:port"). The set is
	// fixed for the pool's lifetime; health tracking decides which members
	// receive traffic.
	Backends []string
	// InFlight bounds the router's concurrently outstanding requests per
	// backend (admission control). <=0 selects 32.
	InFlight int
	// ProbeInterval is the /healthz probe period (<=0: 2s); ProbeTimeout
	// bounds each probe (<=0: 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// EjectAfter is the one health threshold (<=0: 3). An admitted backend
	// is ejected after that many consecutive failures, probed or proxied,
	// and a transport failure on a proxied request ejects it at once. An
	// ejected backend is readmitted after that many consecutive passing
	// probes; any failure restarts the count. A backend that passes probes
	// but fails real traffic is therefore offered one request per run of
	// EjectAfter passing probes, more than EjectAfter-1 probe intervals.
	EjectAfter int
	// HTTPClient overrides the probe/proxy transport (tests inject
	// httptest clients). Must not set a global Timeout.
	HTTPClient *http.Client
	// OnEject and OnReadmit observe health transitions (metrics, logs).
	OnEject   func(addr string, reason error)
	OnReadmit func(addr string)
	// Log receives health-transition log records. nil discards.
	Log *slog.Logger
}

func (c *PoolConfig) withDefaults() PoolConfig {
	out := *c
	if out.InFlight <= 0 {
		out.InFlight = 32
	}
	if out.ProbeInterval <= 0 {
		out.ProbeInterval = 2 * time.Second
	}
	if out.ProbeTimeout <= 0 {
		out.ProbeTimeout = time.Second
	}
	if out.EjectAfter <= 0 {
		out.EjectAfter = 3
	}
	if out.Log == nil {
		out.Log = slog.New(slog.DiscardHandler)
	}
	return out
}

// backend is one pooled wloptd, with health and admission state.
type backend struct {
	addr   string
	client *api.Client

	mu sync.Mutex
	// healthy is the backend's one health state: admitted or ejected.
	healthy bool
	// consecFail counts failures (probe or proxied) since the last success
	// of either kind: ejection reads it, and /healthz reports it as "failing
	// right now", as opposed to the lifetime failures counter.
	consecFail int
	// consecPass counts passing probes since the last failure; readmission
	// reads it.
	consecPass int
	inFlight   int   // router-side outstanding requests
	requests   int64 // proxied requests since boot
	failures   int64 // transport-level failures since boot
	lastErr    string

	// lastStats is the backend's own queue census from its most recent
	// successful health probe (nil until one succeeds).
	lastStats *service.Stats
}

// Pool is the health-checked backend set behind the router: it owns one
// api.Client per backend, runs the active probe loop, applies passive
// ejection on transport failures, and enforces the per-backend in-flight
// admission bound.
//
// Backends start healthy (optimistic): the first probe round corrects the
// picture within ProbeInterval, and any proxy attempt that hits a dead
// backend ejects it immediately, so optimism costs at most one failed
// request per dead backend — while the pessimistic alternative would
// reject all traffic during a cold router start.
type Pool struct {
	cfg      PoolConfig
	ring     *Ring
	backends map[string]*backend

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewPool builds the pool and its ring. Call Start to begin probing.
func NewPool(cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:      cfg,
		ring:     NewRing(cfg.Backends, 0),
		backends: make(map[string]*backend),
		stop:     make(chan struct{}),
	}
	for _, addr := range p.ring.Addrs() {
		p.backends[addr] = &backend{
			addr:    addr,
			client:  api.NewClient(addr, cfg.HTTPClient),
			healthy: true,
		}
	}
	return p
}

// Ring exposes the pool's consistent-hash ring.
func (p *Pool) Ring() *Ring { return p.ring }

// Client returns the typed client for a pooled backend (nil if unknown).
func (p *Pool) Client(addr string) *api.Client {
	if b := p.backends[addr]; b != nil {
		return b.client
	}
	return nil
}

// Start launches the probe loop. Close stops it.
func (p *Pool) Start() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.probeAll()
			}
		}
	}()
}

// Close stops probing and waits for the loop to exit.
func (p *Pool) Close() {
	close(p.stop)
	p.wg.Wait()
}

// probeAll probes every backend once, concurrently (a slow backend must
// not delay health decisions about its peers).
func (p *Pool) probeAll() {
	var wg sync.WaitGroup
	for _, b := range p.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), p.cfg.ProbeTimeout)
			defer cancel()
			h, err := b.client.Health(ctx)
			p.recordProbe(b, h, err)
		}(b)
	}
	wg.Wait()
}

// recordProbe applies one probe result to the backend's health and
// captures its queue census.
func (p *Pool) recordProbe(b *backend, h *api.Health, err error) {
	var ejected, readmitted bool
	b.mu.Lock()
	if err != nil {
		ejected = p.failLocked(b, err, false)
	} else {
		if h != nil && h.Stats != nil {
			b.lastStats = h.Stats
		}
		b.consecFail = 0
		b.consecPass++
		if !b.healthy && b.consecPass >= p.cfg.EjectAfter {
			b.healthy = true
			b.lastErr = ""
			readmitted = true
		}
	}
	b.mu.Unlock()
	if ejected {
		p.ejected(b.addr, "probe", err)
	}
	if readmitted {
		p.cfg.Log.Info("backend readmitted", "backend", b.addr)
		if p.cfg.OnReadmit != nil {
			p.cfg.OnReadmit(b.addr)
		}
	}
}

// failLocked records one failure against b and reports whether it ejected
// b: a proxied transport failure ejects an admitted backend at once, a
// probe failure only as the EjectAfter-th in a row. Caller holds b.mu.
func (p *Pool) failLocked(b *backend, err error, proxied bool) bool {
	b.lastErr = err.Error()
	b.consecPass = 0
	b.consecFail++
	if proxied {
		b.failures++
	}
	if b.healthy && (proxied || b.consecFail >= p.cfg.EjectAfter) {
		b.healthy = false
		return true
	}
	return false
}

// ejected publishes an ejection.
func (p *Pool) ejected(addr, cause string, err error) {
	p.cfg.Log.Warn("backend ejected", "backend", addr, "cause", cause, "err", err)
	if p.cfg.OnEject != nil {
		p.cfg.OnEject(addr, err)
	}
}

// Acquire admits one request against addr: it fails with ErrNoBackend if
// the backend is ejected and ErrBackendBusy if its in-flight bound is
// reached; otherwise it reserves a slot and returns the client plus a
// release function the caller must invoke when the proxied request ends.
// release(nil) records a success, release(errNoVerdict) only returns the
// slot, and any other error is a transport failure that ejects the
// backend at once (passive detection).
func (p *Pool) Acquire(addr string) (cl *api.Client, release func(transportErr error), err error) {
	b := p.backends[addr]
	if b == nil {
		return nil, nil, ErrNoBackend
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.healthy {
		return nil, nil, ErrNoBackend
	}
	if b.inFlight >= p.cfg.InFlight {
		return nil, nil, ErrBackendBusy
	}
	b.inFlight++
	b.requests++
	return b.client, func(transportErr error) { p.release(b, transportErr) }, nil
}

// release returns the admission slot and judges the backend by how its
// request ended.
func (p *Pool) release(b *backend, transportErr error) {
	var ejected bool
	b.mu.Lock()
	b.inFlight--
	switch transportErr {
	case nil:
		b.consecFail = 0
	case errNoVerdict: // the slot only
	default:
		ejected = p.failLocked(b, transportErr, true)
	}
	b.mu.Unlock()
	if ejected {
		p.ejected(b.addr, "proxy", transportErr)
	}
}

// ReportFailure applies passive ejection for a transport failure seen
// outside the Acquire/release path (read-side proxying).
func (p *Pool) ReportFailure(addr string, err error) {
	b := p.backends[addr]
	if b == nil {
		return
	}
	b.mu.Lock()
	ejected := p.failLocked(b, err, true)
	b.mu.Unlock()
	if ejected {
		p.ejected(addr, "proxy", err)
	}
}

// Healthy reports whether addr is currently admitted.
func (p *Pool) Healthy(addr string) bool {
	b := p.backends[addr]
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// InFlight reports the router's outstanding requests against addr.
func (p *Pool) InFlight(addr string) int {
	b := p.backends[addr]
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inFlight
}

// Healthz snapshots the pool for the router's /healthz body, in ring
// (sorted-address) order.
func (p *Pool) Healthz() []api.BackendHealth {
	out := make([]api.BackendHealth, 0, len(p.backends))
	for _, addr := range p.ring.Addrs() {
		b := p.backends[addr]
		b.mu.Lock()
		bh := api.BackendHealth{
			Addr:           b.addr,
			Healthy:        b.healthy,
			InFlight:       b.inFlight,
			InFlightCap:    p.cfg.InFlight,
			Requests:       b.requests,
			Failures:       b.failures,
			ConsecFailures: b.consecFail,
			LastError:      b.lastErr,
		}
		if b.lastStats != nil {
			bh.QueueLen = b.lastStats.QueueLen
			bh.QueueCap = b.lastStats.QueueCap
			bh.RetryAfterS = b.lastStats.RetryAfterS
		}
		out = append(out, bh)
		b.mu.Unlock()
	}
	return out
}

// RetryAfterHint estimates how long a rejected submitter should back off
// before addr has room, in whole seconds. It prefers the backend's own
// drain-rate estimate from the last health probe and falls back to a
// queue-occupancy scale (1s empty → 5s full) when the backend predates
// the estimate or has not been probed yet. Always >= 1 so the hint can
// be written into a Retry-After header as-is.
func (p *Pool) RetryAfterHint(addr string) int {
	b := p.backends[addr]
	if b == nil {
		return 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := 1
	if st := b.lastStats; st != nil {
		s = st.RetryAfterS
		if s <= 0 && st.QueueCap > 0 {
			s = 1 + 4*st.QueueLen/st.QueueCap
		}
	}
	if s < 1 {
		s = 1
	}
	if s > 60 {
		s = 60
	}
	return s
}
