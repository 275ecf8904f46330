// Package trace is a dependency-free span recorder for the serving tier.
// A Trace is a tree of parented Spans (name, start, duration, string
// attrs) identified by a process-minted hex trace ID; a Recorder keeps a
// bounded ring of recent traces plus a small list of the slowest ones so
// a stalled or slow request can be inspected after the fact via
// GET /v1/jobs/{id}/trace or /debug/traces.
//
// The design goal is zero cost when tracing is off: every *Span and
// *Trace method is a no-op on a nil receiver, so call sites thread spans
// unconditionally and pay only a nil check on the untraced path. Traces
// cross process boundaries over HTTP via the X-Wlopt-Trace header
// ("<trace-id>" or "<trace-id>:<parent-span-hex>"); span IDs embed a
// per-process random tag so the router can stitch a backend's span tree
// onto its own proxy spans without collisions.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Header is the HTTP propagation header. Its value is either a bare
// trace ID or "<trace-id>:<parent-span-id-hex>" when the sender has an
// open span the receiver should parent under.
const Header = "X-Wlopt-Trace"

var (
	// procTag seeds trace and span IDs so two processes (router and
	// backend) never mint colliding span IDs within one stitched trace.
	procTag  uint32
	traceSeq atomic.Uint64
	spanSeq  atomic.Uint64
)

func init() {
	var b [4]byte
	if _, err := rand.Read(b[:]); err == nil {
		procTag = binary.BigEndian.Uint32(b[:])
	} else {
		procTag = uint32(time.Now().UnixNano())
	}
}

func newTraceID() string {
	return fmt.Sprintf("%08x%08x", procTag, uint32(traceSeq.Add(1)))
}

func newSpanID() uint64 {
	return uint64(procTag)<<32 | uint64(uint32(spanSeq.Add(1)))
}

// validID accepts IDs safe to log and echo: short, single-line, and
// drawn from a conservative alphabet (inbound headers are untrusted).
func validID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// RecorderConfig bounds a Recorder's memory.
type RecorderConfig struct {
	// Recent is how many traces the FIFO ring retains (finished or
	// in flight). <= 0 selects 2048 — enough to cover the job history
	// plus ambient health probes between scrapes.
	Recent int
	// SpansPerTrace caps spans recorded per trace; extra spans are
	// counted as dropped. <= 0 selects 256.
	SpansPerTrace int
	// Slowest is how many slowest traces are pinned beyond the ring.
	// <= 0 selects 32.
	Slowest int
}

// Recorder retains recent traces in a FIFO ring and pins the slowest
// ones past eviction. All methods are safe for concurrent use.
type Recorder struct {
	cfg RecorderConfig

	mu     sync.Mutex
	traces map[string]*Trace
	order  []string // FIFO of ring-pinned trace IDs
	slow   []*Trace // sorted by slowDur, descending
}

// NewRecorder creates a Recorder with the given bounds.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Recent <= 0 {
		cfg.Recent = 2048
	}
	if cfg.SpansPerTrace <= 0 {
		cfg.SpansPerTrace = 256
	}
	if cfg.Slowest <= 0 {
		cfg.Slowest = 32
	}
	return &Recorder{cfg: cfg, traces: make(map[string]*Trace)}
}

// StartTrace registers a trace under id, minting a fresh ID when id is
// empty or malformed. If the recorder already holds id — a second
// request carrying the same header — the existing trace is joined so
// all spans land in one tree.
func (r *Recorder) StartTrace(id string) *Trace {
	if !validID(id) {
		id = newTraceID()
	}
	t := &Trace{id: id, rec: r, start: time.Now(), spanCap: r.cfg.SpansPerTrace}
	r.mu.Lock()
	if cur, ok := r.traces[id]; ok {
		r.mu.Unlock()
		return cur
	}
	t.inRing = true
	r.traces[id] = t
	r.order = append(r.order, id)
	if len(r.order) > r.cfg.Recent {
		old := r.order[0]
		r.order = r.order[1:]
		if ot := r.traces[old]; ot != nil {
			ot.inRing = false
			if !ot.inSlow {
				delete(r.traces, old)
			}
		}
	}
	r.mu.Unlock()
	return t
}

// noteSlow promotes t into the slowest list when dur beats its record.
// Called on every span end; the fast path is one lock and a compare.
func (r *Recorder) noteSlow(t *Trace, dur time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if dur <= t.slowDur {
		return
	}
	if !t.inSlow && len(r.slow) >= r.cfg.Slowest && dur <= r.slow[len(r.slow)-1].slowDur {
		t.slowDur = dur // remember, but below the bar
		return
	}
	t.slowDur = dur
	if !t.inSlow {
		t.inSlow = true
		r.slow = append(r.slow, t)
	}
	sort.SliceStable(r.slow, func(i, j int) bool { return r.slow[i].slowDur > r.slow[j].slowDur })
	if len(r.slow) > r.cfg.Slowest {
		last := r.slow[len(r.slow)-1]
		r.slow = r.slow[:len(r.slow)-1]
		last.inSlow = false
		if !last.inRing {
			delete(r.traces, last.id)
		}
	}
}

// Snapshot returns the wire form of the trace with the given ID, or
// false if it was never recorded or has been evicted.
func (r *Recorder) Snapshot(id string) (*Info, bool) {
	r.mu.Lock()
	t := r.traces[id]
	r.mu.Unlock()
	if t == nil {
		return nil, false
	}
	return t.snapshot(), true
}

// Slowest returns summaries of the slowest recorded traces, slowest
// first, up to n (n <= 0 returns all pinned).
func (r *Recorder) Slowest(n int) []Summary {
	r.mu.Lock()
	ts := append([]*Trace(nil), r.slow...)
	r.mu.Unlock()
	if n > 0 && len(ts) > n {
		ts = ts[:n]
	}
	out := make([]Summary, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.summary())
	}
	return out
}

// Recent returns summaries of the most recently started traces, newest
// first, up to n (n <= 0 selects 64).
func (r *Recorder) Recent(n int) []Summary {
	if n <= 0 {
		n = 64
	}
	r.mu.Lock()
	ids := r.order
	if len(ids) > n {
		ids = ids[len(ids)-n:]
	}
	ts := make([]*Trace, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		if t := r.traces[ids[i]]; t != nil {
			ts = append(ts, t)
		}
	}
	r.mu.Unlock()
	out := make([]Summary, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.summary())
	}
	return out
}

// Trace is one request's span tree. Create spans with StartSpan; the
// zero trace is unusable — always go through a Recorder.
type Trace struct {
	id      string
	rec     *Recorder
	start   time.Time
	spanCap int

	// Guarded by rec.mu, not mu: ring/slow-list bookkeeping.
	inRing  bool
	inSlow  bool
	slowDur time.Duration

	mu      sync.Mutex
	spans   []*Span
	dropped int
}

// ID returns the trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan opens a span parented under parent (nil parent = root).
// Safe on a nil trace: returns a nil span, whose methods are no-ops.
func (t *Trace) StartSpan(name string, parent *Span) *Span {
	var pid uint64
	if parent != nil {
		pid = parent.id
	}
	return t.startSpan(name, pid, time.Now())
}

// StartSpanAt is StartSpan with an explicit start time, for phases whose
// cost is only known after the fact (e.g. a plan build detected by a
// cache-population probe).
func (t *Trace) StartSpanAt(name string, parent *Span, at time.Time) *Span {
	var pid uint64
	if parent != nil {
		pid = parent.id
	}
	return t.startSpan(name, pid, at)
}

// StartSpanRemote opens a span whose parent is a span ID received over
// the wire (0 = root) — the receiving half of header propagation.
func (t *Trace) StartSpanRemote(name string, parent uint64) *Span {
	return t.startSpan(name, parent, time.Now())
}

func (t *Trace) startSpan(name string, parent uint64, at time.Time) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, id: newSpanID(), parent: parent, name: name, start: at}
	t.mu.Lock()
	if len(t.spans) >= t.spanCap {
		t.dropped++
		t.mu.Unlock()
		s.skip = true // still usable by the caller, just not retained
		return s
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (t *Trace) snapshot() *Info {
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	in := &Info{TraceID: t.id, Dropped: dropped, Spans: make([]SpanInfo, 0, len(spans))}
	for _, s := range spans {
		in.Spans = append(in.Spans, s.info())
	}
	sort.SliceStable(in.Spans, func(i, j int) bool { return in.Spans[i].Start.Before(in.Spans[j].Start) })
	return in
}

func (t *Trace) summary() Summary {
	sum := Summary{TraceID: t.id, Start: t.start}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	sum.Dropped = t.dropped
	t.mu.Unlock()
	sum.Spans = len(spans)
	for _, s := range spans {
		inf := s.info()
		if inf.InProgress {
			sum.Active++
			continue
		}
		if inf.DurationS > sum.MaxDurationS {
			sum.MaxDurationS = inf.DurationS
			sum.MaxSpan = inf.Name
		}
	}
	return sum
}

// Span is one timed phase within a trace. All methods are no-ops on a
// nil receiver so untraced paths cost a single nil check.
type Span struct {
	tr     *Trace
	id     uint64
	parent uint64
	name   string
	start  time.Time
	skip   bool // over the trace's span cap; not retained

	mu    sync.Mutex
	attrs []Attr
	dur   time.Duration
	ended bool
}

// Attr is one key/value annotation on a span.
type Attr struct{ K, V string }

// Trace returns the owning trace (nil on a nil span).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// SetAttr annotates the span. Later duplicates of a key win at render.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{K: key, V: val})
	s.mu.Unlock()
}

// End stamps the span's duration. Idempotent; safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	dur := s.dur
	s.mu.Unlock()
	if !s.skip {
		s.tr.rec.noteSlow(s.tr, dur)
	}
}

func (s *Span) info() SpanInfo {
	s.mu.Lock()
	inf := SpanInfo{
		ID:    fmt.Sprintf("%016x", s.id),
		Name:  s.name,
		Start: s.start,
	}
	if s.parent != 0 {
		inf.Parent = fmt.Sprintf("%016x", s.parent)
	}
	if s.ended {
		inf.DurationS = s.dur.Seconds()
	} else {
		inf.DurationS = time.Since(s.start).Seconds()
		inf.InProgress = true
	}
	if len(s.attrs) > 0 {
		inf.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			inf.Attrs[a.K] = a.V
		}
	}
	s.mu.Unlock()
	return inf
}

// Info is the wire form of a trace: GET /v1/jobs/{id}/trace returns one.
type Info struct {
	TraceID string     `json:"trace_id"`
	Spans   []SpanInfo `json:"spans"`
	Dropped int        `json:"dropped,omitempty"`
}

// SpanInfo is the wire form of one span. IDs are 16-hex-digit strings so
// JSON consumers never face 64-bit integer precision loss.
type SpanInfo struct {
	ID         string            `json:"id"`
	Parent     string            `json:"parent,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationS  float64           `json:"duration_s"`
	InProgress bool              `json:"in_progress,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Summary is one row in the /debug/traces listing.
type Summary struct {
	TraceID      string    `json:"trace_id"`
	Start        time.Time `json:"start"`
	Spans        int       `json:"spans"`
	Active       int       `json:"active,omitempty"`
	Dropped      int       `json:"dropped,omitempty"`
	MaxSpan      string    `json:"max_span,omitempty"`
	MaxDurationS float64   `json:"max_duration_s"`
}

// Merge combines span sets recorded by different processes for the same
// request — the router lays its proxy spans alongside the backend's tree.
// The first non-nil Info's trace ID wins; spans are ordered by start.
func Merge(infos ...*Info) *Info {
	out := &Info{}
	for _, in := range infos {
		if in == nil {
			continue
		}
		if out.TraceID == "" {
			out.TraceID = in.TraceID
		}
		out.Spans = append(out.Spans, in.Spans...)
		out.Dropped += in.Dropped
	}
	sort.SliceStable(out.Spans, func(i, j int) bool { return out.Spans[i].Start.Before(out.Spans[j].Start) })
	return out
}

// Tree renders the span tree as indented text, one span per line:
//
//	http.submit 1.2ms {code=202}
//	  job 340ms {strategy=tabu}
//	    queue.wait 1.1ms
//
// Spans whose parents are absent (e.g. dropped, or the remote half of a
// partial stitch) are printed as roots.
func (in *Info) Tree() string {
	if in == nil {
		return ""
	}
	byID := make(map[string]bool, len(in.Spans))
	kids := make(map[string][]int, len(in.Spans))
	var roots []int
	for _, s := range in.Spans {
		byID[s.ID] = true
	}
	for i, s := range in.Spans {
		if s.Parent != "" && byID[s.Parent] {
			kids[s.Parent] = append(kids[s.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d spans", in.TraceID, len(in.Spans))
	if in.Dropped > 0 {
		fmt.Fprintf(&b, ", %d dropped", in.Dropped)
	}
	b.WriteString(")\n")
	var walk func(i, depth int)
	walk = func(i, depth int) {
		s := in.Spans[i]
		b.WriteString(strings.Repeat("  ", depth+1))
		b.WriteString(s.Name)
		if s.InProgress {
			fmt.Fprintf(&b, " …%s", fmtDur(s.DurationS))
		} else {
			fmt.Fprintf(&b, " %s", fmtDur(s.DurationS))
		}
		if len(s.Attrs) > 0 {
			keys := make([]string, 0, len(s.Attrs))
			for k := range s.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b.WriteString(" {")
			for i, k := range keys {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%s=%s", k, s.Attrs[k])
			}
			b.WriteByte('}')
		}
		b.WriteByte('\n')
		for _, c := range kids[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

func fmtDur(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}
