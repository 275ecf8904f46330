// Package service is the in-process core of optimization-as-a-service: a
// job manager that accepts system specs (inline, or by registry name),
// deduplicates identical work through a content-addressed result cache
// keyed by (spec.Digest, options fingerprint), schedules jobs across a
// bounded worker pool sharing one plan-cached core.Engine — so repeated
// requests against the same system reuse its frozen topology snapshot,
// frequency responses and transfer profiles — supports cooperative
// cancellation threaded through wlopt.Options.Context, and reports
// per-step progress to any number of watchers per job. Progress is a
// state, not a log: a job keeps only its latest event, each watcher
// reads it through a one-slot mailbox that newer events overwrite (so a
// slow watcher skips steps but always gets the terminal event), and Wait
// blocks on a per-job done signal closed at the terminal transition.
//
// The HTTP daemon in cmd/wloptd is a thin shell over this package; the
// package itself is embeddable (the benchmarks drive it in-process).
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sfg"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/systems"
	"repro/internal/trace"
	"repro/internal/wlopt"
)

// Config sizes the manager.
type Config struct {
	// NPSD is the evaluation engine's bin count; <= 0 selects 256.
	NPSD int
	// Workers bounds concurrently running jobs; <= 0 selects GOMAXPROCS.
	Workers int
	// ResultCacheSize bounds the content-addressed result cache;
	// <= 0 selects 128.
	ResultCacheSize int
	// GraphCacheSize bounds the per-digest graph (and engine plan) cache;
	// <= 0 selects 16.
	GraphCacheSize int
	// QueueSize bounds jobs waiting for a worker; <= 0 selects 256.
	// Submit fails with ErrQueueFull beyond it — the service sheds load
	// instead of buffering without bound.
	QueueSize int
	// JobHistory bounds retained terminal jobs; <= 0 selects 1024.
	JobHistory int
	// StepThrottle inserts a pause after every search step. Zero for
	// production; tests use it to make in-flight cancellation windows
	// deterministic, demos to make progress streams watchable.
	StepThrottle time.Duration
	// Store, when non-nil, persists warm state across restarts: plan
	// snapshots keyed by (digest, NPSD) and results keyed by
	// (digest, options fingerprint) survive the process. Reads fall back
	// transparently on miss or corruption; writes are write-through after
	// each completed job. It also carries the accepted-job journal: every
	// accepted submission is journaled before Submit returns and retired
	// at its terminal transition, and New recovers surviving entries —
	// a SIGKILL'd daemon finishes its backlog after restart (see
	// journal.go). nil keeps the manager fully in-memory.
	Store *store.Store
	// NodeID, when non-empty, prefixes job IDs ("<node>-j000001") so IDs
	// minted by different backends never collide behind a router that
	// fans requests across a fleet. Empty keeps the bare "j000001" form.
	NodeID string
	// OnJobDone, when non-nil, is called once per job as it reaches a
	// terminal state, with the job's final snapshot. It runs outside the
	// manager and job locks on whichever goroutine drove the transition —
	// the API layer uses it to feed latency histograms; keep it fast.
	// Manager.Wait returns only after it has run.
	OnJobDone func(*JobInfo)
	// Tracer, when non-nil, records a span tree per job: queue wait,
	// coalesce, store probe, plan build/restore, search and persist
	// phases, joined to the caller's HTTP span when SubmitCtx receives a
	// context carrying one. nil disables tracing entirely — the untraced
	// path performs no allocation and no extra locking.
	Tracer *trace.Recorder
	// PlanObserver, when non-nil, is installed as the engine's plan
	// observer (core.Engine.SetPlanObserver): one callback per plan
	// build/restore with its duration, next to the PlanBuilds /
	// PlanRestores counters. The daemon feeds a latency histogram and a
	// structured log line from it.
	PlanObserver func(core.PlanEvent)
	// Log, when non-nil, receives structured warnings for load-shedding
	// events that would otherwise be invisible outside counters — today
	// that is the promoted-follower cohort shed when a cancelled leader's
	// retry finds the queue full. nil disables the logging.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.NPSD <= 0 {
		c.NPSD = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 128
	}
	if c.GraphCacheSize <= 0 {
		c.GraphCacheSize = 16
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 1024
	}
	return c
}

// Request is one job submission: a system (inline spec, or the name of a
// systems.Registry entry) plus optimizer options. When Options is entirely
// unset, the options embedded in the spec apply.
type Request struct {
	System  string       `json:"system,omitempty"`
	Spec    *spec.Spec   `json:"spec,omitempty"`
	Options spec.Options `json:"options"`
	// Parsed is an inline spec already validated and digested, set in
	// place of Spec: the API layer's spec memo hands the same one to every
	// submission of the same bytes, so the job neither validates nor
	// digests it again, and shares it read-only with every other such job.
	// It never travels on the wire.
	Parsed *spec.Digested `json:"-"`
}

// Sentinel errors, distinguished so the HTTP layer can map them to status
// codes.
var (
	// ErrBadRequest wraps submission validation failures (HTTP 400).
	ErrBadRequest = errors.New("bad request")
	// ErrBadSpec wraps spec parse/validation failures specifically; it
	// matches ErrBadRequest too, so status mapping is unchanged, but the
	// API layer can report the machine-readable bad_spec code.
	ErrBadSpec error = badSpecError{}
	// ErrNotFound marks unknown job IDs and system names (HTTP 404).
	ErrNotFound = errors.New("not found")
	// ErrQueueFull means the pending queue is at capacity (HTTP 429,
	// with Retry-After — the service sheds load instead of buffering).
	ErrQueueFull = errors.New("queue full")
	// ErrDeadlineExceeded means the job's deadline elapsed before a worker
	// could start it (HTTP 504): the answer could only ever arrive after
	// the caller stopped caring, so the queue sheds it instead of running
	// a search nobody will read. Jobs whose deadline fires *mid-search*
	// are not errors — they finish Done with Result.Degraded set.
	ErrDeadlineExceeded = errors.New("deadline exceeded")
	// ErrClosed means the manager is shutting down (HTTP 503).
	ErrClosed = errors.New("service closed")
)

// badSpecError is ErrBadSpec's concrete type: a distinct sentinel that
// also answers errors.Is(err, ErrBadRequest).
type badSpecError struct{}

func (badSpecError) Error() string        { return "bad spec" }
func (badSpecError) Is(target error) bool { return target == ErrBadRequest }

// Stats is a point-in-time census, exposed on /healthz.
type Stats struct {
	Submitted int64 `json:"submitted"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Done      int   `json:"done"`
	Failed    int   `json:"failed"`
	Cancelled int   `json:"cancelled"`
	// QueueLen and QueueCap expose the pending-queue occupancy and bound —
	// the admission-control signal a router needs to decide whether this
	// backend can absorb another job before it answers 429.
	QueueLen int `json:"queue_len"`
	QueueCap int `json:"queue_cap"`
	// Workers is the configured concurrent-job bound.
	Workers int `json:"workers"`
	// CacheHits counts submissions answered from the result cache — the
	// in-memory LRU or the persistent store.
	CacheHits int64 `json:"cache_hits"`
	// Coalesced counts submissions attached as followers to an identical
	// in-flight job (single-flight) instead of being queued redundantly.
	Coalesced int64 `json:"coalesced"`
	// Watchers is the live event-subscriber count across retained jobs;
	// abandoned watch streams would show up here as a monotonic climb.
	Watchers int `json:"watchers"`
	// ResultCacheLen is the current result-cache population.
	ResultCacheLen int `json:"result_cache_len"`
	// GraphCacheLen is the current graph-cache population.
	GraphCacheLen int `json:"graph_cache_len"`
	// PlanBuilds counts engine plans built from scratch (graph propagation
	// + FFT response sampling); PlanRestores counts plans installed from
	// persisted snapshots instead. A restarted daemon serving warm digests
	// should grow PlanRestores while PlanBuilds stays at zero.
	PlanBuilds   int64 `json:"plan_builds"`
	PlanRestores int64 `json:"plan_restores"`
	// JobsRecovered counts journaled jobs re-admitted at boot — nonzero
	// means the previous process died abruptly with accepted work
	// pending, and this one picked it up.
	JobsRecovered int64 `json:"jobs_recovered"`
	// DeadlineExpired counts jobs shed because their deadline elapsed
	// while they were still waiting (queued, or riding a leader) — before
	// any search ran on their behalf.
	DeadlineExpired int64 `json:"deadline_expired"`
	// Degraded counts searches truncated by a deadline mid-run and
	// answered with their best-so-far assignment (Result.Degraded).
	Degraded int64 `json:"degraded"`
	// PromotionsShed counts coalesced followers dropped with ErrQueueFull
	// when their cancelled leader's promotion found no queue room.
	PromotionsShed int64 `json:"promotions_shed"`
	// RetryAfterS is the backend's own estimate, from the observed queue
	// drain rate, of how many seconds until the pending queue has room —
	// the value a 429 should carry as Retry-After, exported here so a
	// router can reuse it without re-deriving the rate.
	RetryAfterS int `json:"retry_after_s"`
	// Store is the persistent store census; nil when running in-memory.
	Store *store.Stats `json:"store,omitempty"`
}

// SystemInfo describes one registry system on GET /v1/systems.
type SystemInfo struct {
	Name string `json:"name"`
	// Digest is the system's content hash at the default 16-bit export
	// width (width-dependent noise models hash differently at other
	// widths; see systems.SpecFor).
	Digest string `json:"digest"`
	Nodes  int    `json:"nodes"`
	// Sources is the number of optimizable noise sources.
	Sources int `json:"sources"`
}

// cachedResult is one result-cache entry.
type cachedResult struct {
	res    *wlopt.Result
	budget float64
}

// graphEntry serializes use of one cached graph: the optimizer mutates
// source widths in place, so two jobs on the same digest take turns while
// jobs on different digests run concurrently.
type graphEntry struct {
	mu sync.Mutex
	g  *sfg.Graph
	// persisted marks the digest's plan snapshot as already on disk
	// (written by us, or restored from a previous process); guarded by mu.
	persisted bool
}

// Manager is the service core. Create with New, dispose with Close.
type Manager struct {
	cfg Config
	eng *core.Engine

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *job
	wg         sync.WaitGroup

	// halted marks a crash-stop (Halt): store and journal writes are
	// suppressed so the on-disk state looks SIGKILL'd, not drained.
	halted atomic.Bool

	// Shedding counters live outside m.mu: they are bumped from timer
	// goroutines and settle paths that already hold j.mu, and the lock
	// order there must stay m.mu → j.mu.
	deadlineExpired atomic.Int64
	degraded        atomic.Int64
	promotionsShed  atomic.Int64

	// drainMu guards the queue drain-rate window: the timestamps of the
	// last drainWindow jobs a worker popped off the queue, from which
	// RetryAfter estimates time-to-room for 429 responses.
	drainMu    sync.Mutex
	drainTimes [drainWindow]time.Time
	drainN     int // population, up to drainWindow
	drainIdx   int // next write position (ring)

	mu        sync.Mutex
	closed    bool
	jobs      map[string]*job
	order     []string // insertion order, for history eviction
	seq       int64
	submitted int64
	recovered int64 // journaled jobs re-admitted on boot
	cacheHits int64
	coalesced int64
	results   *lruCache       // key -> *cachedResult
	graphs    *lruCache       // digest -> *graphEntry
	inflight  map[string]*job // key -> leader job (queued or running)
	regSpecs  map[string]regEntry

	sysOnce sync.Once
	sysList []SystemInfo
	sysErr  error
}

// New starts a manager with cfg.Workers worker goroutines.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		eng:        core.NewEngine(cfg.NPSD, 1),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *job, cfg.QueueSize),
		jobs:       make(map[string]*job),
		results:    newLRU(cfg.ResultCacheSize),
		graphs:     newLRU(cfg.GraphCacheSize),
		inflight:   make(map[string]*job),
		regSpecs:   make(map[string]regEntry),
	}
	// Keep one engine plan per cached graph: the plan cache is the point
	// of sharing the engine across requests.
	m.eng.SetPlanCacheCap(cfg.GraphCacheSize)
	if cfg.PlanObserver != nil {
		m.eng.SetPlanObserver(cfg.PlanObserver)
	}
	m.graphs.onEvict = func(_ string, val any) {
		m.eng.Invalidate(val.(*graphEntry).g)
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	// Recover journaled jobs synchronously, after the workers exist to
	// drain them but before the manager is handed to any server: by the
	// time the process accepts traffic, every recovered ID resolves.
	m.recoverJobs()
	return m
}

// Close stops accepting submissions, cancels every queued and running job,
// and waits for the workers to drain.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.baseCancel()
	close(m.queue)
	m.wg.Wait()
}

// Submit validates, resolves and enqueues one job. A submission whose
// (digest, options) key is in the result cache — the in-memory LRU, or the
// persistent store when configured — returns an already-done job without
// touching the queue; one whose key is already in flight coalesces onto
// the running job (single-flight) instead of duplicating the search.
func (m *Manager) Submit(req Request) (*JobInfo, error) {
	return m.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit with a caller context, used only for tracing: when
// ctx carries an active trace span (the API layer's per-request root),
// the job's spans join that trace instead of starting a fresh one. The
// context does not govern the job's lifetime — cancellation still goes
// through Cancel.
func (m *Manager) SubmitCtx(ctx context.Context, req Request) (*JobInfo, error) {
	sysName, sp, opts, digest, err := m.resolve(req)
	if err != nil {
		return nil, err
	}
	key := digest + "|" + opts.Fingerprint()

	// Mint the job's spans before taking the manager lock: trace
	// bookkeeping is never under m.mu. With no Tracer all three stay
	// nil and every span operation below is a free no-op.
	var tr *trace.Trace
	var jobSpan, qSpan *trace.Span
	if m.cfg.Tracer != nil {
		parent := trace.SpanFrom(ctx)
		if parent != nil {
			tr = parent.Trace()
		} else {
			tr = m.cfg.Tracer.StartTrace("")
		}
		jobSpan = tr.StartSpan("job", parent)
		jobSpan.SetAttr("digest", shortDigest(digest))
		jobSpan.SetAttr("strategy", opts.Strategy)
		qSpan = tr.StartSpan("queue.wait", jobSpan)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		abortSpans(jobSpan, qSpan, "closed")
		return nil, ErrClosed
	}
	m.seq++
	m.submitted++
	id := fmt.Sprintf("j%06d", m.seq)
	if m.cfg.NodeID != "" {
		id = m.cfg.NodeID + "-" + id
	}
	jobSpan.SetAttr("job_id", id)
	// The deadline anchors at acceptance: DeadlineMS is "total latency
	// from submission", and this is where submission becomes real.
	j := m.newJob(id, m.seq, sysName, sp, opts, digest, key, time.Now())
	j.traceID, j.span, j.qspan = tr.ID(), jobSpan, qSpan
	if hit, ok := m.results.get(key); ok {
		return m.serveHitLocked(j, hit.(*cachedResult)), nil
	}
	if leader, ok := m.inflight[key]; ok {
		info := m.joinLocked(j, leader)
		// Followers are accepted work too: journal them, so a crash while
		// their leader runs doesn't silently drop them.
		m.journalAccept(j)
		// A follower waits like a queued job does, so its deadline evicts
		// it the same way: riding a leader that won't finish in time is
		// still waiting too long.
		m.armDeadline(j)
		return info, nil
	}
	if m.cfg.Store != nil {
		// Probe the persistent store with the lock dropped — it's file IO —
		// then re-check the in-memory tiers, which may have been filled (or
		// claimed by a new leader) while we were on disk.
		m.mu.Unlock()
		psp := tr.StartSpan("store.probe", jobSpan)
		cr := m.storeGetResult(key)
		psp.SetAttr("hit", strconv.FormatBool(cr != nil))
		psp.End()
		m.mu.Lock()
		if m.closed {
			m.submitted--
			m.mu.Unlock()
			j.cancel()
			abortSpans(jobSpan, qSpan, "closed")
			return nil, ErrClosed
		}
		if hit, ok := m.results.get(key); ok {
			return m.serveHitLocked(j, hit.(*cachedResult)), nil
		}
		if leader, ok := m.inflight[key]; ok {
			info := m.joinLocked(j, leader)
			m.journalAccept(j)
			m.armDeadline(j)
			return info, nil
		}
		if cr != nil {
			m.results.put(key, cr)
			return m.serveHitLocked(j, cr), nil
		}
	}
	select {
	case m.queue <- j:
	default:
		// Rejected: the ID is burned (never registered; gaps are fine) and
		// the submission doesn't count.
		m.submitted--
		m.mu.Unlock()
		j.cancel() // release the context registration
		abortSpans(jobSpan, qSpan, "queue_full")
		return nil, ErrQueueFull
	}
	m.inflight[key] = j
	m.registerLocked(j)
	m.mu.Unlock()
	// Journal after commit, before the caller gets its ack: a crash from
	// here on is recoverable, and a crash before here raced the ack the
	// client never received.
	m.journalAccept(j)
	m.armDeadline(j)
	return j.snapshot(), nil
}

// newJob mints a queued job; Submit and journal recovery both build jobs
// here. The deadline anchors at submitted. The initial "queued" event is
// published before the job is visible to workers or watchers, so a
// worker's "running" transition can never be overwritten. Tracing fields
// are the caller's to set, also before the job is visible.
func (m *Manager) newJob(id string, seq int64, sysName string, sp *spec.Spec, opts spec.Options, digest, key string, submitted time.Time) *job {
	j := &job{
		id:        id,
		seq:       seq,
		sysName:   sysName,
		sp:        sp,
		opts:      opts,
		digest:    digest,
		key:       key,
		state:     JobQueued,
		submitted: submitted,
		done:      make(chan struct{}),
		muted:     &m.halted,
	}
	if opts.DeadlineMS > 0 {
		j.deadline = submitted.Add(time.Duration(opts.DeadlineMS) * time.Millisecond)
	}
	// Every terminal transition routes through jobDone: it retires the
	// job's journal entry, then forwards to Config.OnJobDone.
	j.onDone = func(info *JobInfo) { m.jobDone(j, info) }
	j.ctx, j.cancel = context.WithCancel(m.baseCtx)
	j.mu.Lock()
	j.publishLocked(Event{Type: "state", State: JobQueued})
	j.mu.Unlock()
	return j
}

// armDeadline schedules the job's eviction at its deadline. Only jobs
// still waiting when the timer fires are shed (expireJob checks); one
// that reached a worker first is instead truncated by the
// deadline-derived search context in run. The timer is released at the
// job's terminal transition (notifyDone).
func (m *Manager) armDeadline(j *job) {
	if j.deadline.IsZero() {
		return
	}
	t := time.AfterFunc(time.Until(j.deadline), func() { m.expireJob(j) })
	j.mu.Lock()
	if j.state.Terminal() {
		// Lost the race with an early terminal transition; don't leave a
		// timer ticking behind a finished job.
		j.mu.Unlock()
		t.Stop()
		return
	}
	j.dlTimer = t
	j.mu.Unlock()
}

// expireJob sheds a job whose deadline elapsed while it was still
// waiting — queued for a worker, or coalesced behind a leader. It fails
// fast with ErrDeadlineExceeded (journal retired through the normal
// terminal hook, job span aborted "deadline"); jobs already running or
// terminal are left alone.
func (m *Manager) expireJob(j *job) {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return
	}
	j.err = fmt.Errorf("%w after %s waiting", ErrDeadlineExceeded, time.Since(j.submitted).Round(time.Millisecond))
	j.span.SetAttr("abort", "deadline")
	became := j.setStateLocked(JobFailed)
	j.mu.Unlock()
	j.cancel()
	if became {
		m.deadlineExpired.Add(1)
		j.notifyDone()
	}
}

// serveHitLocked answers j straight from a cached result. Called with m.mu
// held; returns with it released.
func (m *Manager) serveHitLocked(j *job, cr *cachedResult) *JobInfo {
	m.cacheHits++
	j.cacheHit = true
	j.budget = cr.budget
	m.registerLocked(j)
	m.mu.Unlock()
	j.finish(cr.res, nil)
	return j.snapshot()
}

// joinLocked attaches j as a follower of the in-flight leader computing
// the same key; the leader's settle resolves it. Called with m.mu held;
// returns with it released.
func (m *Manager) joinLocked(j, leader *job) *JobInfo {
	m.coalesced++
	leader.followers = append(leader.followers, j)
	m.registerLocked(j)
	m.mu.Unlock()
	// Mark the single-flight join in the follower's trace: its queue.wait
	// span now measures time spent riding the leader.
	csp := j.span.Trace().StartSpan("coalesce", j.span)
	csp.SetAttr("leader", leader.id)
	csp.End()
	return j.snapshot()
}

// abortSpans closes a rejected submission's spans before the job ever
// becomes visible (queue full, manager closing). No-op when nil.
func abortSpans(jobSpan, qSpan *trace.Span, reason string) {
	qSpan.End()
	jobSpan.SetAttr("state", reason)
	jobSpan.End()
}

// shortDigest trims a content digest to a log/trace-friendly prefix.
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// registerLocked adds the job to the index and evicts old terminal jobs
// beyond the history bound; m.mu must be held.
func (m *Manager) registerLocked(j *job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	for len(m.order) > m.cfg.JobHistory {
		victim, ok := m.jobs[m.order[0]]
		if ok {
			victim.mu.Lock()
			terminal := victim.state.Terminal()
			victim.mu.Unlock()
			if !terminal {
				break // never evict live jobs; the queue bounds them
			}
			delete(m.jobs, victim.id)
		}
		m.order = m.order[1:]
	}
}

// resolve turns a Request into (system name, spec, defaulted options,
// digest). Inline specs are validated once, by the Digest computation, or
// not at all when they arrive Parsed; registry systems reuse a memoized
// spec + digest, so warm submissions by name never rebuild a graph.
func (m *Manager) resolve(req Request) (string, *spec.Spec, spec.Options, string, error) {
	var zero spec.Options
	sp, digest := req.Spec, ""
	if req.Parsed != nil && sp == nil {
		sp, digest = req.Parsed.Spec(), req.Parsed.Digest()
	}
	if (req.System == "") == (sp == nil) || (req.Parsed != nil && req.Spec != nil) {
		return "", nil, zero, "", fmt.Errorf("%w: exactly one of system and spec must be set", ErrBadRequest)
	}
	opts := req.Options
	if opts.IsZero() && sp != nil && sp.Options != nil {
		// IsZero ignores DeadlineMS, so a request carrying only a deadline
		// still defers to the spec's embedded options — but the deadline is
		// the caller's, and survives the substitution.
		dl := opts.DeadlineMS
		opts = *sp.Options
		if dl > 0 {
			opts.DeadlineMS = dl
		}
	}
	opts = opts.WithDefaults()
	if err := opts.Validate(); err != nil {
		return "", nil, zero, "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if _, ok := wlopt.Lookup(opts.Strategy); !ok {
		return "", nil, zero, "", fmt.Errorf("%w: unknown strategy %q (registered: %v)", ErrBadRequest, opts.Strategy, wlopt.Strategies())
	}
	if sp != nil {
		if digest == "" {
			var err error
			if digest, err = sp.Digest(); err != nil { // validates the spec as a side effect
				return "", nil, zero, "", fmt.Errorf("%w: %w", ErrBadSpec, err)
			}
		}
		return sp.Name, sp, opts, digest, nil
	}
	en, err := m.registrySpec(req.System, opts.MaxFrac)
	if err != nil {
		return "", nil, zero, "", err
	}
	return req.System, en.sp, opts, en.digest, nil
}

// regEntry memoizes one registry system's exported spec and digest per
// export width.
type regEntry struct {
	sp     *spec.Spec
	digest string
}

// registrySpec exports (and memoizes) the spec of a registry system at the
// given width.
func (m *Manager) registrySpec(name string, maxFrac int) (regEntry, error) {
	key := fmt.Sprintf("%s@%d", name, maxFrac)
	m.mu.Lock()
	if en, ok := m.regSpecs[key]; ok {
		m.mu.Unlock()
		return en, nil
	}
	m.mu.Unlock()
	registry, err := systems.Registry()
	if err != nil {
		return regEntry{}, err
	}
	for _, sys := range registry {
		if sys.Name() == name {
			sp, err := systems.SpecFor(sys, maxFrac)
			if err != nil {
				return regEntry{}, err
			}
			digest, err := sp.Digest()
			if err != nil {
				return regEntry{}, err
			}
			en := regEntry{sp: sp, digest: digest}
			m.mu.Lock()
			m.regSpecs[key] = en
			m.mu.Unlock()
			return en, nil
		}
	}
	return regEntry{}, fmt.Errorf("%w: unknown system %q", ErrNotFound, name)
}

func (m *Manager) worker() {
	defer m.wg.Done()
	// Reading from the closed queue drains the buffered backlog first, so
	// shutdown marks leftover jobs cancelled (their context is already
	// dead) instead of abandoning them silently.
	for j := range m.queue {
		m.run(j)
	}
}

// run executes one job on the calling worker goroutine.
func (m *Manager) run(j *job) {
	// Every pop frees a queue slot, whether the job runs or is skipped:
	// both feed the drain-rate estimate behind RetryAfter.
	m.recordDrain()
	// Settle runs whatever happens to the leader — success, failure,
	// cancellation before begin — so coalesced followers are never
	// stranded.
	defer m.settle(j)
	// A job popped after its deadline is shed before any work happens —
	// this closes the race where the worker wins against the eviction
	// timer by a few microseconds.
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		m.expireJob(j)
		return
	}
	if !j.begin() {
		return
	}
	// tr is nil with tracing off; every span below is then a no-op.
	tr := j.span.Trace()
	entry, err := m.graphFor(j)
	if err != nil {
		j.finish(nil, err)
		return
	}
	// One job per graph at a time: the optimizer mutates source widths in
	// place. Jobs on different digests proceed concurrently.
	entry.mu.Lock()
	defer entry.mu.Unlock()
	g := entry.g

	// Force the plan build here (instead of lazily inside the first
	// evaluation) so a cold build is timed and attributed to this job;
	// warm and restored plans report built=false and record nothing.
	planStart := time.Now()
	built, err := m.eng.EnsurePlan(g)
	if err != nil {
		j.finish(nil, err)
		return
	}
	if built {
		tr.StartSpanAt("plan.build", j.span, planStart).End()
	}

	budget := j.opts.Budget
	if j.opts.BudgetWidth > 0 {
		bsp := tr.StartSpan("budget.probe", j.span)
		probe, err := m.eng.EvaluateAssignment(g, core.UniformAssignment(g.NoiseSources(), j.opts.BudgetWidth))
		bsp.End()
		if err != nil {
			j.finish(nil, fmt.Errorf("budget probe at %d bits: %w", j.opts.BudgetWidth, err))
			return
		}
		budget = probe.Power
	}
	j.mu.Lock()
	j.budget = budget
	j.mu.Unlock()

	// A deadlined job searches under a context that expires at the
	// deadline: the anytime strategies then stop at their next greedy
	// step and hand back the best-so-far assignment, which becomes a
	// degraded answer below instead of a cancellation.
	searchCtx := j.ctx
	if !j.deadline.IsZero() {
		var cancelSearch context.CancelFunc
		searchCtx, cancelSearch = context.WithDeadline(j.ctx, j.deadline)
		defer cancelSearch()
	}
	res, err := wlopt.RunStrategy(g, j.opts.Strategy, wlopt.Options{
		Budget:       budget,
		MinFrac:      j.opts.MinFrac,
		MaxFrac:      j.opts.MaxFrac,
		CostPerBit:   j.opts.CostPerBit,
		Evaluator:    m.eng,
		Seed:         j.opts.Seed,
		AnnealRounds: j.opts.AnnealRounds,
		// With tracing on, carry the job span so RunStrategy opens its
		// "search" span under it; With returns searchCtx unchanged
		// otherwise.
		Context: trace.With(searchCtx, j.span),
		Progress: func(ev wlopt.ProgressEvent) {
			j.progress(ev)
			m.throttle(searchCtx)
		},
	})
	if err == nil && res != nil && res.Cancelled && j.ctx.Err() == nil && errors.Is(searchCtx.Err(), context.DeadlineExceeded) {
		// The deadline — not the caller — stopped the search: the
		// best-so-far assignment is a valid degraded answer, not a
		// cancellation. It is served but never cached (below), so the
		// key's canonical answer stays open for an undegraded run.
		res.Cancelled = false
		res.Degraded = true
		j.span.SetAttr("degraded", "true")
		m.degraded.Add(1)
	}
	if err == nil && res != nil && !res.Cancelled && !res.Degraded {
		m.mu.Lock()
		m.results.put(j.key, &cachedResult{res: res, budget: budget})
		m.mu.Unlock()
		// Write-through: the persistent tiers are repaired/filled on every
		// completed job. entry.mu is still held, so the persisted flag and
		// the engine plan for g are stable.
		psp := tr.StartSpan("persist", j.span)
		m.storePutResult(j.key, res, budget)
		m.persistPlan(j.digest, entry)
		psp.End()
	}
	j.finish(res, err)
}

// settle resolves a leader's followers once its run attempt is over. A
// successful leader's result answers every follower directly; a failed or
// cancelled leader promotes its first live follower to leader, which
// re-enters the queue carrying the rest — so a cancelled leader never
// silently takes its whole cohort down with it.
func (m *Manager) settle(j *job) {
	m.mu.Lock()
	if m.inflight[j.key] == j {
		delete(m.inflight, j.key)
	}
	followers := j.followers
	j.followers = nil
	if len(followers) == 0 {
		m.mu.Unlock()
		return
	}
	j.mu.Lock()
	res, err, budget := j.res, j.err, j.budget
	done := j.state == JobDone
	j.mu.Unlock()

	// A degraded result answers only its own caller: followers may have
	// longer (or no) deadlines, so they are promoted to run the search
	// properly instead of inheriting a truncated answer.
	if done && err == nil && res != nil && !res.Cancelled && !res.Degraded {
		cr := &cachedResult{res: res, budget: budget}
		m.mu.Unlock()
		for _, f := range followers {
			f.mu.Lock()
			terminal := f.state.Terminal()
			if !terminal {
				f.cacheHit = true
				f.budget = cr.budget
			}
			f.mu.Unlock()
			if !terminal {
				f.finish(cr.res, nil)
			}
		}
		return
	}

	// Leader didn't produce a servable result: promote the first follower
	// whose context is still live, hand it the remaining cohort, and
	// re-dispatch it.
	var promote *job
	var rest, dead, shed []*job
	for _, f := range followers {
		if f.ctx.Err() != nil {
			dead = append(dead, f)
		} else if promote == nil {
			promote = f
		} else {
			rest = append(rest, f)
		}
	}
	if promote != nil {
		if m.closed {
			dead = append(dead, promote)
			dead = append(dead, rest...)
			promote = nil
		} else {
			promote.followers = append(promote.followers, rest...)
			select {
			case m.queue <- promote:
				m.inflight[promote.key] = promote
			default:
				// No queue room for the retry: shed the cohort explicitly
				// rather than stranding it.
				shed = append(shed, promote)
				shed = append(shed, rest...)
				promote = nil
			}
		}
	}
	m.mu.Unlock()
	for _, f := range dead {
		f.cancelNow()
	}
	for _, f := range shed {
		m.promotionsShed.Add(1)
		if m.cfg.Log != nil {
			m.cfg.Log.Warn("shedding promoted follower: queue full at leader settle",
				"job_id", f.id, "trace_id", f.traceID, "leader", j.id,
				"digest", shortDigest(f.digest))
		}
		f.finish(nil, ErrQueueFull)
	}
}

// storeGetResult probes the persistent store for a result-cache entry.
// nil means miss (including corrupt entries, which the store has already
// disposed of).
func (m *Manager) storeGetResult(key string) *cachedResult {
	if m.cfg.Store == nil {
		return nil
	}
	var sr storedResult
	if !m.cfg.Store.Get(store.KindResult, key, &sr) || sr.Res == nil {
		return nil
	}
	return &cachedResult{res: sr.Res, budget: sr.Budget}
}

// storePutResult write-throughs one completed result. Persistence is best
// effort: a failed write leaves the in-memory cache authoritative.
func (m *Manager) storePutResult(key string, res *wlopt.Result, budget float64) {
	if m.cfg.Store == nil || m.halted.Load() {
		return
	}
	_ = m.cfg.Store.Put(store.KindResult, key, &storedResult{Res: res, Budget: budget})
}

// persistPlan snapshots the digest's warm engine plan to the store, once
// per graphEntry lifetime. The caller must hold entry.mu.
func (m *Manager) persistPlan(digest string, entry *graphEntry) {
	if m.cfg.Store == nil || entry.persisted || m.halted.Load() {
		return
	}
	snap, err := m.eng.SnapshotPlan(entry.g)
	if err != nil {
		if errors.Is(err, core.ErrPlanNotCached) {
			// Full-propagation plans have no width-independent warm state;
			// nothing will ever be snapshottable for this entry.
			entry.persisted = true
		}
		return
	}
	if m.cfg.Store.Put(store.KindPlan, store.PlanKey(digest, m.cfg.NPSD), snap) == nil {
		entry.persisted = true
	}
}

// storedResult is the persisted (gob) form of one result-cache entry.
type storedResult struct {
	Res    *wlopt.Result
	Budget float64
}

// throttle sleeps Config.StepThrottle, cut short by cancellation.
func (m *Manager) throttle(ctx context.Context) {
	if m.cfg.StepThrottle <= 0 {
		return
	}
	t := time.NewTimer(m.cfg.StepThrottle)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// graphFor returns the cached graph for the job's digest, building it on
// first use.
func (m *Manager) graphFor(j *job) (*graphEntry, error) {
	m.mu.Lock()
	if e, ok := m.graphs.get(j.digest); ok {
		m.mu.Unlock()
		return e.(*graphEntry), nil
	}
	m.mu.Unlock()
	// Build outside the manager lock: construction designs filters and
	// can take a while.
	tr := j.span.Trace()
	gsp := tr.StartSpan("graph.build", j.span)
	g, err := j.sp.Build()
	gsp.End()
	if err != nil {
		return nil, err
	}
	e := &graphEntry{g: g}
	if m.cfg.Store != nil {
		// Warm the engine from a persisted plan snapshot: a hit skips the
		// whole plan build (propagation + FFT response sampling). A
		// snapshot that fails shape validation is as good as corrupt —
		// drop it; the write-through after the first job rebuilds it.
		rsp := tr.StartSpan("plan.restore", j.span)
		restored := false
		key := store.PlanKey(j.digest, m.cfg.NPSD)
		var snap core.PlanSnapshot
		if m.cfg.Store.Get(store.KindPlan, key, &snap) {
			if err := m.eng.RestorePlan(g, &snap); err != nil {
				m.cfg.Store.Delete(store.KindPlan, key)
			} else {
				e.persisted = true
				restored = true
			}
		}
		rsp.SetAttr("restored", strconv.FormatBool(restored))
		rsp.End()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.graphs.get(j.digest); ok {
		return prev.(*graphEntry), nil // lost the build race; use theirs
	}
	m.graphs.put(j.digest, e)
	return e, nil
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (*JobInfo, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	return j.snapshot(), nil
}

// Pagination bounds for ListPage. A router fanning N backends into one
// listing multiplies every page it requests by N, so the ceiling is firm.
const (
	// DefaultListLimit applies when ListQuery.Limit is unset.
	DefaultListLimit = 100
	// MaxListLimit clamps explicit limits.
	MaxListLimit = 1000
)

// ListQuery selects one page of the retained job history.
type ListQuery struct {
	// Limit bounds the page size; <= 0 selects DefaultListLimit, values
	// above MaxListLimit are clamped.
	Limit int
	// Cursor resumes after the job with this ID (as returned in
	// JobPage.NextCursor). Empty starts from the oldest retained job.
	Cursor string
	// State, when non-empty, keeps only jobs currently in that state.
	State JobState
}

// JobPage is one page of job snapshots in submission order.
type JobPage struct {
	Jobs []*JobInfo `json:"jobs"`
	// NextCursor resumes the listing after the last job of this page;
	// empty when the listing is exhausted.
	NextCursor string `json:"next_cursor,omitempty"`
	// Partial marks a page that could not consult every shard (a router
	// fanning in with one or more backends ejected). Such a page always
	// carries a NextCursor: retrying it after the pool heals recovers the
	// missing shard's jobs. Single-node listings never set it.
	Partial bool `json:"partial,omitempty"`
}

// ListPage returns jobs after the cursor in submission order, filtered by
// state, up to the limit. Cursors are job IDs; a cursor whose job has been
// evicted from the history still works, because IDs order by their minting
// sequence.
func (m *Manager) ListPage(q ListQuery) (*JobPage, error) {
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultListLimit
	}
	if limit > MaxListLimit {
		limit = MaxListLimit
	}
	switch q.State {
	case "", JobQueued, JobRunning, JobDone, JobFailed, JobCancelled:
	default:
		return nil, fmt.Errorf("%w: unknown state %q", ErrBadRequest, q.State)
	}
	after := int64(0)
	if q.Cursor != "" {
		seq, err := seqOfID(q.Cursor)
		if err != nil {
			return nil, fmt.Errorf("%w: bad cursor %q", ErrBadRequest, q.Cursor)
		}
		after = seq
	}

	m.mu.Lock()
	jobs := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok && j.seq > after {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()

	page := &JobPage{Jobs: []*JobInfo{}}
	for _, j := range jobs {
		info := j.snapshot()
		if q.State != "" && info.State != q.State {
			continue
		}
		if len(page.Jobs) == limit {
			// One more match exists beyond the full page: resume after the
			// last included job.
			page.NextCursor = page.Jobs[limit-1].ID
			return page, nil
		}
		page.Jobs = append(page.Jobs, info)
	}
	return page, nil
}

// seqOfID recovers the minting sequence from a job ID ("j000042" or
// "<node>-j000042"): the digits after the final 'j'.
func seqOfID(id string) (int64, error) {
	i := strings.LastIndexByte(id, 'j')
	if i < 0 || i+1 == len(id) {
		return 0, fmt.Errorf("no sequence in %q", id)
	}
	return strconv.ParseInt(id[i+1:], 10, 64)
}

// Cancel requests cooperative cancellation: a queued job terminates
// immediately (the worker that eventually pops it skips it), a running one
// stops at its next greedy step with the best-so-far result. Cancelling a
// terminal job is a no-op.
func (m *Manager) Cancel(id string) (*JobInfo, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	j.cancelNow()
	return j.snapshot(), nil
}

// Watch subscribes to the job's progress, which is a state, not a log:
// the channel first yields the job's latest event, then newer ones as
// they are published, and closes after the terminal event. A watcher
// that reads slower than the job publishes skips intermediate progress
// (Seq shows the gaps) but always receives the terminal event exactly
// once. Call the returned func to unsubscribe early.
func (m *Manager) Watch(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	ch, stop := j.subscribe()
	return ch, stop, nil
}

// Wait blocks until the job reaches a terminal state and its OnJobDone
// hook has run (or ctx expires), and returns its final snapshot. It waits
// on the job's done signal, not on its event stream. The snapshot is
// taken from the job itself, so the result survives even if newer
// submissions evict the job from the retained history while Wait is
// blocked.
func (m *Manager) Wait(ctx context.Context, id string) (*JobInfo, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// drainWindow sizes the drain-rate sample: enough pops to smooth over
// per-job variance, few enough that the estimate tracks load shifts.
const drainWindow = 32

// recordDrain notes that a worker popped one job off the pending queue,
// feeding the drain-rate window behind RetryAfter. Every pop counts —
// including jobs skipped because they were cancelled or expired while
// queued — because every pop frees a queue slot.
func (m *Manager) recordDrain() {
	m.drainMu.Lock()
	m.drainTimes[m.drainIdx] = time.Now()
	m.drainIdx = (m.drainIdx + 1) % drainWindow
	if m.drainN < drainWindow {
		m.drainN++
	}
	m.drainMu.Unlock()
}

// RetryAfter estimates, in whole seconds, how long until the pending
// queue has room, from the observed drain rate over the recent window:
// the Retry-After a 429 should carry instead of a constant. With no
// drain history (cold start, or a queue that fills before anything ever
// ran) it answers 1 — retry soon and let the next 429 carry a real
// estimate. Clamped to [1, 60].
func (m *Manager) RetryAfter() int {
	return m.retryAfterFor(len(m.queue))
}

func (m *Manager) retryAfterFor(queueLen int) int {
	m.drainMu.Lock()
	n := m.drainN
	var oldest, newest time.Time
	if n > 0 {
		newest = m.drainTimes[(m.drainIdx-1+drainWindow)%drainWindow]
		oldest = m.drainTimes[(m.drainIdx-n+drainWindow)%drainWindow]
	}
	m.drainMu.Unlock()
	if n < 2 || queueLen <= 0 {
		return 1
	}
	elapsed := newest.Sub(oldest)
	if elapsed <= 0 {
		return 1
	}
	perPop := elapsed / time.Duration(n-1)
	eta := perPop * time.Duration(queueLen)
	s := int((eta + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	if s > 60 {
		s = 60
	}
	return s
}

// Stats reports the census.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Submitted:       m.submitted,
		JobsRecovered:   m.recovered,
		CacheHits:       m.cacheHits,
		Coalesced:       m.coalesced,
		QueueLen:        len(m.queue),
		QueueCap:        m.cfg.QueueSize,
		Workers:         m.cfg.Workers,
		DeadlineExpired: m.deadlineExpired.Load(),
		Degraded:        m.degraded.Load(),
		PromotionsShed:  m.promotionsShed.Load(),
		RetryAfterS:     m.retryAfterFor(len(m.queue)),
		ResultCacheLen:  m.results.len(),
		GraphCacheLen:   m.graphs.len(),
		PlanBuilds:      m.eng.PlanBuilds(),
		PlanRestores:    m.eng.PlanRestores(),
	}
	if m.cfg.Store != nil {
		ss := m.cfg.Store.Stats()
		st.Store = &ss
	}
	for _, j := range m.jobs {
		j.mu.Lock()
		s := j.state
		st.Watchers += len(j.subs)
		j.mu.Unlock()
		switch s {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
		case JobDone:
			st.Done++
		case JobFailed:
			st.Failed++
		case JobCancelled:
			st.Cancelled++
		}
	}
	return st
}

// Systems lists the registry systems the service accepts by name, with
// their content digests at the default export width.
func (m *Manager) Systems() ([]SystemInfo, error) {
	m.sysOnce.Do(func() {
		const listWidth = 16
		specs, err := systems.RegistrySpecs(listWidth)
		if err != nil {
			m.sysErr = err
			return
		}
		for _, sp := range specs {
			d, err := sp.Digest()
			if err != nil {
				m.sysErr = err
				return
			}
			sources := 0
			for i := range sp.Nodes {
				if sp.Nodes[i].Noise != nil {
					sources++
				}
			}
			m.sysList = append(m.sysList, SystemInfo{
				Name: sp.Name, Digest: d, Nodes: len(sp.Nodes), Sources: sources,
			})
		}
	})
	return m.sysList, m.sysErr
}
