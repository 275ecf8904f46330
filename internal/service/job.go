package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/wlopt"
)

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	// JobQueued means the job is waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning means a worker is executing the search.
	JobRunning JobState = "running"
	// JobDone means the search finished and Result is valid.
	JobDone JobState = "done"
	// JobFailed means the search errored; Error is set.
	JobFailed JobState = "failed"
	// JobCancelled means the job was cancelled; a job cancelled mid-run
	// still carries the best-so-far Result (with Result.Cancelled set).
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobResult is the wire form of wlopt.Result.
type JobResult struct {
	Strategy    string         `json:"strategy"`
	Fracs       map[string]int `json:"fracs"`
	Power       float64        `json:"power"`
	Cost        float64        `json:"cost"`
	Evaluations int            `json:"evaluations"`
	UniformFrac int            `json:"uniform_frac"`
	UniformCost float64        `json:"uniform_cost"`
	Cancelled   bool           `json:"cancelled,omitempty"`
	// Degraded marks a deadline-truncated search: the assignment is the
	// best-so-far at cutoff — valid to use, but not the canonical answer
	// for this (digest, options) identity, and never cached as it.
	Degraded bool `json:"degraded,omitempty"`
}

func toJobResult(r *wlopt.Result) *JobResult {
	if r == nil {
		return nil
	}
	return &JobResult{
		Strategy:    r.Strategy,
		Fracs:       r.Fracs,
		Power:       r.Power,
		Cost:        r.Cost,
		Evaluations: r.Evaluations,
		UniformFrac: r.UniformFrac,
		UniformCost: r.UniformCost,
		Cancelled:   r.Cancelled,
		Degraded:    r.Degraded,
	}
}

// JobInfo is a point-in-time snapshot of a job, as returned by the API.
type JobInfo struct {
	ID     string   `json:"id"`
	State  JobState `json:"state"`
	System string   `json:"system,omitempty"`
	// Digest is the content hash of the submitted system; together with
	// the options fingerprint it is the job's cache identity.
	Digest   string `json:"digest"`
	Strategy string `json:"strategy"`
	// CacheHit marks a submission answered from the result cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Budget is the resolved absolute noise-power budget (0 until the
	// budget-width probe has run).
	Budget float64 `json:"budget,omitempty"`
	// Step and Evaluations mirror the latest progress event.
	Step        int        `json:"step,omitempty"`
	Evaluations int        `json:"evaluations,omitempty"`
	Submitted   time.Time  `json:"submitted"`
	Started     *time.Time `json:"started,omitempty"`
	Finished    *time.Time `json:"finished,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
	Error       string     `json:"error,omitempty"`
	// ErrorCode is the machine-readable class of Error for failures whose
	// cause clients branch on — a job shed at its deadline reports
	// "deadline_exceeded", a promoted follower shed on a full queue
	// "queue_full". Empty for other failures. Submit-time rejections carry
	// the same codes in the HTTP error envelope instead; this field covers
	// failures that happen after the 202, surfacing via Get/Wait/Watch.
	ErrorCode string `json:"error_code,omitempty"`
	// TraceID keys the job's span tree (GET /v1/jobs/{id}/trace); empty
	// when the manager runs without a trace recorder.
	TraceID string `json:"trace_id,omitempty"`
}

// Event is one element of a job's progress stream.
type Event struct {
	Seq   int      `json:"seq"`
	Type  string   `json:"type"` // "state" | "progress"
	JobID string   `json:"job_id"`
	State JobState `json:"state,omitempty"`
	// Progress payload (Type == "progress").
	Step        int     `json:"step,omitempty"`
	Cost        float64 `json:"cost,omitempty"`
	Power       float64 `json:"power,omitempty"`
	Evaluations int     `json:"evaluations,omitempty"`
	// Terminal marks the last event of the stream.
	Terminal bool `json:"terminal,omitempty"`
}

// job is the manager-internal state; all mutable fields are guarded by mu.
type job struct {
	id      string
	seq     int64 // minting sequence; orders the history for cursors
	sysName string
	sp      *spec.Spec
	opts    spec.Options // defaulted
	digest  string
	key     string // digest + options fingerprint
	// deadline is the absolute instant the caller stops caring, from
	// opts.DeadlineMS anchored at acceptance; zero means none. Immutable
	// after construction. While waiting, dlTimer (guarded by mu) evicts
	// the job at the deadline; while running, the search context expires
	// at it instead.
	deadline time.Time
	// onDone, when set, observes the terminal snapshot exactly once
	// (Config.OnJobDone); invoked with no locks held.
	onDone func(*JobInfo)

	// Tracing state, immutable after construction. span covers the job's
	// whole life, qspan the submitted→started wait; both are nil (and
	// every operation on them a no-op) when the manager has no Tracer.
	traceID string
	span    *trace.Span
	qspan   *trace.Span

	ctx    context.Context
	cancel context.CancelFunc

	// followers are later submissions of the same key coalesced onto this
	// job (single-flight); guarded by Manager.mu, not j.mu. The manager's
	// settle resolves them when this job's run attempt ends.
	followers []*job

	// journalMu guards the journal handshake: journaled marks an entry on
	// disk awaiting this job's terminal transition; journalDone marks the
	// terminal side already handled, so a late journalAccept must not
	// resurrect a retired entry. Separate from j.mu because the journal
	// write is file IO.
	journalMu   sync.Mutex
	journaled   bool
	journalDone bool

	mu        sync.Mutex
	dlTimer   *time.Timer // deadline eviction, armed while waiting
	state     JobState
	cacheHit  bool
	budget    float64
	step      int
	evals     int
	res       *wlopt.Result
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time

	// latest is the last published event: a job's progress is a state,
	// not a log, so a watcher that subscribes late starts from here.
	latest  Event
	subs    map[int]chan Event // one-slot mailboxes; nil until a watcher subscribes
	nextSub int
	// done is closed once the terminal transition's onDone hook has run
	// (see notifyDone), unless muted.
	done chan struct{}

	// muted aliases the manager's halted flag: a crash-stopped manager
	// (Halt, the SIGKILL stand-in) must not deliver events to watchers —
	// a killed process goes silent, its streams die when the sockets do.
	muted *atomic.Bool
}

// snapshot renders the job as a JobInfo under its lock.
func (j *job) snapshot() *JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := &JobInfo{
		ID:          j.id,
		State:       j.state,
		System:      j.sysName,
		Digest:      j.digest,
		Strategy:    j.opts.Strategy,
		CacheHit:    j.cacheHit,
		Budget:      j.budget,
		Step:        j.step,
		Evaluations: j.evals,
		Submitted:   j.submitted,
		Result:      toJobResult(j.res),
		TraceID:     j.traceID,
	}
	if !j.started.IsZero() {
		t := j.started
		info.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.Finished = &t
	}
	if j.err != nil {
		info.Error = j.err.Error()
		info.ErrorCode = errCode(j.err)
	}
	return info
}

// errCode classifies a terminal error for JobInfo.ErrorCode. The strings
// match the API layer's wire codes (api imports service, so the
// constants live there; these literals are the contract).
func errCode(err error) string {
	switch {
	case errors.Is(err, ErrDeadlineExceeded):
		return "deadline_exceeded"
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	}
	return ""
}

// publishLocked makes ev the job's latest event and hands it to every
// watcher's one-slot mailbox; j.mu must be held. Seq counts the events
// published, so it stays monotonic while watchers see gaps. Sends never
// block: a mailbox still holding an unread event has it replaced by the
// newer one, so a slow watcher skips progress but always ends on the
// terminal event. This is the only sender, under j.mu, so the slot it
// empties stays free for it. The terminal event also closes every
// mailbox; done closes later, in notifyDone.
func (j *job) publishLocked(ev Event) {
	ev.Seq = j.latest.Seq + 1
	ev.JobID = j.id
	j.latest = ev
	if j.muted.Load() {
		return
	}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
			select {
			case <-ch:
			default:
			}
			ch <- ev
		}
	}
	if ev.Terminal {
		for id, ch := range j.subs {
			close(ch)
			delete(j.subs, id)
		}
	}
}

// setState transitions the job and publishes a state event.
func (j *job) setState(s JobState) {
	j.mu.Lock()
	became := j.setStateLocked(s)
	j.mu.Unlock()
	if became {
		j.notifyDone()
	}
}

// setStateLocked is setState with j.mu already held; it reports whether
// this call made the job terminal (the caller then fires notifyDone once
// the lock is released). Transitions out of a terminal state are ignored,
// so racing finishers cannot double-publish.
func (j *job) setStateLocked(s JobState) bool {
	if j.state.Terminal() {
		return false
	}
	j.state = s
	switch s {
	case JobRunning:
		j.started = time.Now()
	case JobDone, JobFailed, JobCancelled:
		j.finished = time.Now()
	}
	j.publishLocked(Event{Type: "state", State: s, Terminal: s.Terminal()})
	return s.Terminal()
}

// notifyDone closes the job's spans and delivers the terminal snapshot
// to the onDone hook. Callers guarantee exactly one invocation (the
// single setStateLocked call that returned true) and that no locks are
// held.
func (j *job) notifyDone() {
	j.mu.Lock()
	t := j.dlTimer
	j.dlTimer = nil
	j.mu.Unlock()
	if t != nil {
		t.Stop() // terminal jobs don't need their deadline eviction anymore
	}
	info := j.snapshot()
	j.endTrace(info)
	if j.onDone != nil {
		j.onDone(info)
	}
	// Closing done after the hook means a Wait that returns has seen the
	// hook run. A halted manager stays silent, as publishLocked does.
	if !j.muted.Load() {
		close(j.done)
	}
}

// endTrace stamps the terminal outcome on the job's spans and ends them.
// Every terminal path funnels through here (via notifyDone); with
// tracing off the spans are nil and each call is a no-op.
func (j *job) endTrace(info *JobInfo) {
	j.qspan.End()
	j.span.SetAttr("state", string(info.State))
	if info.CacheHit {
		j.span.SetAttr("cache_hit", "true")
	}
	j.span.End()
}

// begin atomically moves a queued job to running; it reports false when
// the job was cancelled (or otherwise left the queued state) first — the
// worker then skips it.
func (j *job) begin() bool {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return false
	}
	if j.ctx.Err() != nil {
		became := j.setStateLocked(JobCancelled)
		j.mu.Unlock()
		j.cancel()
		if became {
			j.notifyDone()
		}
		return false
	}
	j.setStateLocked(JobRunning)
	j.mu.Unlock()
	// The queue wait is over the moment a worker picks the job up.
	j.qspan.End()
	return true
}

// cancelNow cancels the job's context and, for a job still waiting in the
// queue, publishes the terminal state immediately instead of when a worker
// eventually pops it — callers and watchers see "cancelled" right away.
// Running jobs keep their state until the search notices the context at
// its next step.
func (j *job) cancelNow() {
	j.mu.Lock()
	became := false
	if j.state == JobQueued {
		became = j.setStateLocked(JobCancelled)
	}
	j.mu.Unlock()
	j.cancel()
	if became {
		j.notifyDone()
	}
}

// progress records one search step and publishes it.
func (j *job) progress(ev wlopt.ProgressEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.step = ev.Step
	j.evals = ev.Evaluations
	j.publishLocked(Event{Type: "progress", Step: ev.Step, Cost: ev.Cost, Power: ev.Power, Evaluations: ev.Evaluations})
}

// finish records the outcome, publishes the terminal state, and releases
// the job's context registration (a terminal job must not stay parented
// under the manager's base context, or a long-running daemon accumulates
// one child context per submission ever made).
func (j *job) finish(res *wlopt.Result, err error) {
	j.mu.Lock()
	j.res = res
	j.err = err
	if res != nil {
		j.evals = res.Evaluations
	}
	j.mu.Unlock()
	switch {
	case err != nil:
		j.setState(JobFailed)
	case res != nil && res.Cancelled:
		j.setState(JobCancelled)
	default:
		j.setState(JobDone)
	}
	j.cancel()
}

// subscribe registers a watcher: a one-slot mailbox seeded with the
// latest event, which publishLocked keeps replacing with newer ones; the
// channel closes after the terminal event. Seeding and registering happen
// in one j.mu hold, so no event — the terminal one above all — can fall
// between them. The returned func unsubscribes (idempotent).
func (j *job) subscribe() (<-chan Event, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Event, 1)
	ch <- j.latest
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}
	}
	if j.subs == nil {
		j.subs = make(map[int]chan Event)
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if c, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(c)
		}
	}
}
