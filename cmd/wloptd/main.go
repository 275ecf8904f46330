// Command wloptd is the word-length optimization daemon: an HTTP shell
// over internal/service that turns the paper's millisecond-scale
// analytical evaluation into an online service. Clients POST a system
// spec (or a registry system name) with optimizer options and get back a
// job; jobs are deduplicated through a content-addressed result cache,
// executed on a bounded worker pool sharing one plan-cached evaluation
// engine, cancellable mid-search, and observable step by step over
// server-sent events.
//
// The HTTP surface is the versioned wire API of internal/api — request,
// response and error envelopes live there, shared with the wloptr router,
// the loadgen load generator and the typed api.Client. This file is only
// flag parsing and lifecycle; it mounts every route from internal/api:
//
//	POST   /v1/jobs          submit; 202 with the job, 200 when cached
//	GET    /v1/jobs          list: ?limit= &cursor= &state=
//	GET    /v1/jobs/{id}     job snapshot; ?watch=1 streams SSE progress
//	DELETE /v1/jobs/{id}     cooperative cancel (best-so-far result)
//	GET    /v1/systems       registry systems accepted by name
//	GET    /healthz          version, uptime, addr, job/cache statistics
//	GET    /metrics          Prometheus text exposition
//
// Usage:
//
//	wloptd -addr :8080
//	wloptd -addr 127.0.0.1:9000 -npsd 512 -workers 8 -cache 256
//	wloptd -addr :8080 -store /var/lib/wloptd  # persistent warm store
//	wloptd -addr :8080 -node b1                # job-ID prefix behind a router
//	wloptd -addr :8080 -pprof 127.0.0.1:6060   # live profiling sidecar
//
// With -store, completed results and engine plan snapshots (transfer
// profiles + σ²-tables) are written through to a content-addressed on-disk
// store, so a restarted daemon answers repeat submissions from disk and
// serves new options on known systems without rebuilding a single plan.
// Corrupt or truncated entries are detected by checksum, logged, removed,
// and rebuilt by the next job; the daemon never serves bad data. The
// /healthz stats expose the store census plus plan_builds/plan_restores
// counters for observing the effect.
//
// The store also makes accepted jobs crash-durable: every accepted
// submission is journaled before the 202 is written and retired at its
// terminal transition, and on boot the daemon recovers surviving journal
// entries — re-running (or serving from the persisted result) every job
// a SIGKILL'd predecessor left unfinished, under the original job IDs.
// The /healthz stats report the count as jobs_recovered. Graceful
// shutdown cancels and drains instead, so only an abrupt stop leaves
// work to recover.
//
// With -node (default: a random 4-hex tag), job IDs are minted as
// "<node>-j000001" so IDs from different backends never collide behind a
// wloptr router. Pass -node ” to keep bare "j000001" IDs.
//
// The -pprof flag serves net/http/pprof on a second, separate listener so
// the service hot paths (plan lookups, scalar move scoring, the worker
// pool) can be profiled in place under production traffic without
// exposing the debug surface on the public API address:
//
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight searches
// are cancelled cooperatively (between greedy steps), watchers receive
// their terminal events, and the listener drains before exit. The pprof
// listener is debug-only and exits with the process.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"flag"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // -pprof: registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		npsd      = flag.Int("npsd", 0, "evaluation engine PSD bins (0 = 256)")
		workers   = flag.Int("workers", 0, "concurrently running jobs (0 = GOMAXPROCS)")
		cache     = flag.Int("cache", 0, "result cache entries (0 = 128)")
		queue     = flag.Int("queue", 0, "pending job queue bound (0 = 256)")
		maxBody   = flag.Int64("max-body", 1<<20, "maximum request body bytes")
		node      = flag.String("node", "auto", "job-ID prefix distinguishing this backend in a cluster ('auto' = random, '' = none)")
		storeDir  = flag.String("store", "", "persistent warm-store directory (plans + results survive restarts); empty disables")
		pprof     = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060); empty disables")
		logFormat = flag.String("log", "text", "log format: text or json")
	)
	flag.Parse()

	logger := newLogger(*logFormat)
	slog.SetDefault(logger)

	rec := trace.NewRecorder(trace.RecorderConfig{})
	met := api.NewServerMetrics(nil)

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			logger.Error("store open failed", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		st.SetSlog(logger.With("component", "store"))
		logger.Info("persistent store opened", "dir", *storeDir,
			"plans", st.Len(store.KindPlan), "results", st.Len(store.KindResult))
	}

	if *pprof != "" {
		// Separate listener on the default mux (where net/http/pprof
		// registers), so the debug surface never shares the API address.
		go func() {
			logger.Info("pprof listening", "url", "http://"+*pprof+"/debug/pprof/")
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				logger.Error("pprof serve failed", "err", err)
			}
		}()
	}

	nodeID := *node
	if nodeID == "auto" {
		nodeID = randomNodeID()
	}
	if nodeID != "" {
		logger.Info("node ID assigned", "node", nodeID)
	}

	// Plan-build observability: every cold plan build and snapshot restore
	// lands in one histogram (by kind) and one debug log line.
	planSeconds := met.Registry().Histogram("wlopt_plan_seconds",
		"Time spent building or restoring evaluation plans, by kind.",
		[]float64{.0005, .001, .005, .01, .05, .1, .5, 1, 5}, "kind", core.PlanBuilt)
	planRestoreSeconds := met.Registry().Histogram("wlopt_plan_seconds",
		"Time spent building or restoring evaluation plans, by kind.",
		[]float64{.0005, .001, .005, .01, .05, .1, .5, 1, 5}, "kind", core.PlanRestored)

	mgr := service.New(service.Config{
		NPSD:            *npsd,
		Workers:         *workers,
		ResultCacheSize: *cache,
		QueueSize:       *queue,
		Store:           st,
		NodeID:          nodeID,
		Tracer:          rec,
		Log:             logger,
		PlanObserver: func(ev core.PlanEvent) {
			if ev.Kind == core.PlanBuilt {
				planSeconds.Observe(ev.Duration.Seconds())
			} else {
				planRestoreSeconds.Observe(ev.Duration.Seconds())
			}
			logger.Debug("plan ready", "kind", ev.Kind, "duration_s", ev.Duration.Seconds())
		},
		OnJobDone: func(info *service.JobInfo) {
			met.ObserveJob(info)
			logger.Info("job terminal",
				"job_id", info.ID, "trace_id", info.TraceID, "state", info.State,
				"strategy", info.Strategy, "cache_hit", info.CacheHit, "error", info.Error)
		},
	})
	if n := mgr.Stats().JobsRecovered; n > 0 {
		logger.Info("recovered journaled jobs", "count", n, "dir", *storeDir)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newMux(mgr, *maxBody, met, *addr, rec),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
	case err := <-errCh:
		logger.Error("serve failed", "err", err)
		mgr.Close()
		os.Exit(1)
	}
	// Terminate jobs first: every watcher's stream ends at its terminal
	// event, so active SSE connections drain and Shutdown can complete.
	mgr.Close()
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		logger.Error("shutdown incomplete", "err", err)
		srv.Close()
	}
	logger.Info("bye")
}

// newLogger builds the process logger: text (the default, journald- and
// human-friendly) or JSON (log shippers), on stderr either way.
func newLogger(format string) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// newMux wires the daemon's handler: every route is mounted from the
// shared internal/api layer (the router and the tests mount the same
// handlers); nothing is hand-rolled here.
func newMux(mgr *service.Manager, maxBody int64, met *api.ServerMetrics, addr string, rec *trace.Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	api.NewServer(mgr, api.ServerConfig{MaxBody: maxBody, Addr: addr, Metrics: met, Tracer: rec}).Mount(mux)
	return mux
}

// randomNodeID mints a short random backend tag for job-ID namespacing.
func randomNodeID() string {
	var b [2]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "node"
	}
	return hex.EncodeToString(b[:])
}
