// Command wloptr is the sharded serving tier's router: a consistent-hash
// front end spreading jobs across a pool of wloptd backends by spec
// digest. It speaks the identical /v1 wire API (internal/api), so clients
// point at the router exactly as they would at a single daemon — and get
// a cluster whose plan caches, result caches, and persistent stores stay
// warm per shard, because every submission of the same system always
// lands on the same backend.
//
// Usage:
//
//	wloptr -addr :8090 -backends http://127.0.0.1:9001,http://127.0.0.1:9002
//	wloptr -addr :8090 -backends ... -inflight 64 -probe-interval 1s
//
// Routing: POST /v1/jobs parses the body at the edge (bad specs are
// rejected with line/col before touching a backend), computes the shard
// key — the spec content digest, or the registry name for named
// submissions — and forwards to the key's owner on the ring. If the owner
// is ejected, the request fails over along the ring's deterministic
// clockwise order; if the owner is merely saturated, the router waits
// -spill-wait (clamped to a slice of the job's X-Wlopt-Deadline when it
// has one) for capacity, retries the owner once, and then spills to the
// next ring backend — a cold-cache plan build beats a rejection. Only
// when every candidate is saturated does it answer 429 queue_full, with
// Retry-After derived from the owner's probed queue occupancy. Reads
// follow a job-ID affinity map with fan-out fallback; GET /v1/jobs fans
// in across all healthy backends with a composite cursor; ?watch=1
// proxies the backend's SSE stream frame by frame. Every proxied response
// carries X-Wlopt-Backend.
//
// Health: each backend is probed on /healthz every -probe-interval and is
// either admitted or ejected. -eject-after consecutive failures, probed
// or proxied, eject it, and a transport-level proxy failure ejects it at
// once; -eject-after consecutive passing probes readmit it, and any
// failure restarts that count. A backend that answers probes but fails
// real traffic thus gets one request per run of -eject-after passing
// probes. /healthz on the router reports the pool view; /metrics
// exposes wloptr_* counters, gauges, and latency histograms.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
)

func main() {
	var (
		addr          = flag.String("addr", ":8090", "listen address")
		backends      = flag.String("backends", "", "comma-separated wloptd base URLs (required)")
		inflight      = flag.Int("inflight", 0, "max in-flight requests per backend (0 = 32)")
		maxBody       = flag.Int64("max-body", 1<<20, "maximum request body bytes")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "backend /healthz probe period")
		probeTimeout  = flag.Duration("probe-timeout", time.Second, "per-probe timeout")
		ejectAfter    = flag.Int("eject-after", 3, "consecutive failures before ejection, and consecutive passing probes before readmission")
		spillWait     = flag.Duration("spill-wait", 0, "grace period before spilling past a saturated shard owner (0 = 250ms)")
		logFormat     = flag.String("log", "text", "log format: text or json")
	)
	flag.Parse()

	logger := newLogger(*logFormat)
	slog.SetDefault(logger)

	var pool []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			pool = append(pool, b)
		}
	}
	if len(pool) == 0 {
		logger.Error("-backends is required (comma-separated base URLs)")
		os.Exit(1)
	}

	rt := router.New(router.Config{
		Pool: router.PoolConfig{
			Backends:      pool,
			InFlight:      *inflight,
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
			EjectAfter:    *ejectAfter,
		},
		MaxBody:   *maxBody,
		Addr:      *addr,
		SpillWait: *spillWait,
		Log:       logger,
	})
	rt.Start()
	defer rt.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "backends", len(pool))

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
	case err := <-errCh:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		logger.Error("shutdown incomplete", "err", err)
		srv.Close()
	}
	logger.Info("bye")
}

// newLogger builds the process logger: text (the default) or JSON, on
// stderr either way.
func newLogger(format string) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}
