package service

import (
	"sort"
	"time"

	"repro/internal/spec"
	"repro/internal/store"
)

// The job journal makes accepted work crash-durable. It is a write-ahead
// log of *pending* jobs only: Submit journals every accepted submission
// (leaders and coalesced followers alike) before returning, and the
// terminal transition deletes the entry — so the journal's steady-state
// size is the in-flight backlog, and the result store, not the journal,
// is the system of record for completed work. On boot, recoverJobs
// re-submits every surviving entry through the normal pool under its
// original job ID: results land in the store, duplicates coalesce via
// the existing single-flight path, and watchers that reconnect after a
// crash find their job IDs alive again.
//
// Crash windows and their outcomes:
//
//   - crash before the journal write: the client never got its 202 (the
//     ack races the same crash), so nothing was durably accepted.
//   - crash mid-run: the entry survives; recovery re-runs the search.
//   - crash between the result write and the journal delete: recovery
//     re-submits, hits the persisted result, and serves it — the delete
//     is retried implicitly by the terminal transition of the hit.
//
// Graceful shutdown (Close) is *not* a crash: it cancels queued and
// running jobs, which is a terminal transition watchers observe, so the
// journal drains. Only an abrupt stop (SIGKILL, or Halt in tests) leaves
// entries behind for recovery.

// journalEntry is the persisted (gob) form of one accepted job.
type journalEntry struct {
	ID        string
	Seq       int64
	System    string
	Spec      *spec.Spec
	Options   spec.Options // defaulted at accept time
	Digest    string
	State     JobState
	Submitted time.Time
}

// jobDone is every job's terminal hook: it retires the journal entry,
// then forwards to the user's OnJobDone. Invoked exactly once per job,
// with no locks held.
func (m *Manager) jobDone(j *job, info *JobInfo) {
	m.journalTerminal(j)
	if m.cfg.OnJobDone != nil {
		m.cfg.OnJobDone(info)
	}
}

// journalAccept persists the accepted job. Called after Submit commits
// the job (enqueued or coalesced), outside m.mu: the write is file IO.
// j.journalMu closes the race with an early terminal transition — a job
// that finished before we got here must not resurrect its entry.
func (m *Manager) journalAccept(j *job) {
	if m.cfg.Store == nil || m.halted.Load() {
		return
	}
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	if j.journalDone {
		return // already terminal; nothing pending to persist
	}
	en := &journalEntry{
		ID:        j.id,
		Seq:       j.seq,
		System:    j.sysName,
		Spec:      j.sp,
		Options:   j.opts,
		Digest:    j.digest,
		State:     JobQueued,
		Submitted: j.submitted,
	}
	if m.cfg.Store.Put(store.KindJob, j.id, en) == nil {
		j.journaled = true
	}
}

// journalTerminal retires the job's journal entry. A halted manager
// (crash simulation) skips the delete — that is the point of Halt.
func (m *Manager) journalTerminal(j *job) {
	if m.cfg.Store == nil || m.halted.Load() {
		return
	}
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	j.journalDone = true
	if j.journaled {
		m.cfg.Store.Delete(store.KindJob, j.id)
		j.journaled = false
	}
}

// recoverJobs scans the journal on boot and re-submits every surviving
// non-terminal entry through the normal submission path, oldest first so
// coalesced cohorts re-form (the leader re-enqueues, its followers
// re-attach via single-flight). Runs synchronously in New, before the
// manager is handed to any server: by the time the process accepts
// traffic, every recovered job ID resolves again.
func (m *Manager) recoverJobs() {
	if m.cfg.Store == nil {
		return
	}
	var entries []*journalEntry
	m.cfg.Store.ForEach(store.KindJob, func() any { return new(journalEntry) }, func(key string, v any) {
		je := v.(*journalEntry)
		if je.ID == "" || je.Spec == nil {
			m.cfg.Store.Delete(store.KindJob, key)
			return
		}
		if je.State.Terminal() {
			m.cfg.Store.Delete(store.KindJob, je.ID)
			return
		}
		entries = append(entries, je)
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq })
	for _, je := range entries {
		m.recoverOne(je)
	}
}

// recoverOne re-submits one journaled job under its original ID,
// mirroring Submit's cache-hit / coalesce / enqueue ladder. The minting
// sequence is advanced past the recovered seq so fresh IDs never collide
// with recovered ones.
func (m *Manager) recoverOne(je *journalEntry) {
	opts := je.Options.WithDefaults()
	key := je.Digest + "|" + opts.Fingerprint()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if _, exists := m.jobs[je.ID]; exists {
		m.mu.Unlock()
		m.cfg.Store.Delete(store.KindJob, je.ID)
		return
	}
	if je.Seq > m.seq {
		m.seq = je.Seq
	}
	m.submitted++
	// The deadline anchors at the *original* acceptance, which the journal
	// preserved: a job recovered after its deadline passed is evicted
	// immediately (the timer fires at once) instead of burning a worker on
	// an answer its caller stopped waiting for.
	j := m.newJob(je.ID, je.Seq, je.System, je.Spec, opts, je.Digest, key, je.Submitted)
	j.journaled = true // the entry is on disk; the terminal hook retires it
	if m.cfg.Tracer != nil {
		// A recovered job gets a fresh trace — the original caller's trace
		// died with the old process, but its replayed run should still be
		// explainable.
		tr := m.cfg.Tracer.StartTrace("")
		j.traceID = tr.ID()
		j.span = tr.StartSpan("job", nil)
		j.span.SetAttr("job_id", je.ID)
		j.span.SetAttr("digest", shortDigest(je.Digest))
		j.span.SetAttr("strategy", opts.Strategy)
		j.span.SetAttr("recovered", "true")
		j.qspan = tr.StartSpan("queue.wait", j.span)
	}
	m.recovered++

	if hit, ok := m.results.get(key); ok {
		m.serveHitLocked(j, hit.(*cachedResult))
		return
	}
	if leader, ok := m.inflight[key]; ok {
		m.joinLocked(j, leader)
		m.armDeadline(j)
		return
	}
	m.mu.Unlock()
	cr := m.storeGetResult(key)
	m.mu.Lock()
	if m.closed {
		m.submitted--
		m.recovered--
		m.mu.Unlock()
		j.cancel()
		return
	}
	if hit, ok := m.results.get(key); ok {
		m.serveHitLocked(j, hit.(*cachedResult))
		return
	}
	if leader, ok := m.inflight[key]; ok {
		m.joinLocked(j, leader)
		m.armDeadline(j)
		return
	}
	if cr != nil {
		m.results.put(key, cr)
		m.serveHitLocked(j, cr)
		return
	}
	select {
	case m.queue <- j:
	default:
		// No queue room: leave the entry on disk for the next boot rather
		// than dropping accepted work; this job stays un-recovered.
		m.submitted--
		m.recovered--
		m.mu.Unlock()
		j.cancel()
		return
	}
	m.inflight[key] = j
	m.registerLocked(j)
	m.mu.Unlock()
	m.armDeadline(j)
}

// Halt crash-stops the manager: it stops accepting work and cancels
// execution like Close, but suppresses every store and journal write
// first — simulating a SIGKILL whose accepted jobs must be recovered by
// the next process over the same store directory. Tests use it to
// exercise recovery in-process; production code has no reason to call it.
func (m *Manager) Halt() {
	m.halted.Store(true)
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
