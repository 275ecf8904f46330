// Package metrics is a minimal, dependency-free instrumentation registry
// with Prometheus text exposition (format 0.0.4). The serving tier —
// wloptd backends and the wloptr router — mounts one Registry per process
// on GET /metrics so job latency histograms, cache/plan hit counters,
// queue depths and per-backend request counts are scrapeable without
// pulling a client library into the module.
//
// Three metric kinds cover the tier's needs:
//
//   - Counter: a monotonically increasing integer (requests, ejections).
//   - GaugeFunc / CounterFunc: a value read at scrape time from a
//     callback — the natural shape for figures the service already
//     tracks elsewhere (queue depth from service.Stats, pool health).
//   - Histogram: fixed upper-bound buckets with cumulative counts, a sum
//     and a count (job and request latencies).
//
// Metrics are identified by (name, ordered label pairs); registering the
// same identity twice returns the existing metric, so hot paths can call
// Registry.Counter per request without bookkeeping. All metrics are safe
// for concurrent use; exposition order is registration order, making the
// output deterministic and testable.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a process's metrics and renders them as Prometheus text.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family groups every labelled child of one metric name under a shared
// HELP/TYPE header.
type family struct {
	name, help, typ string
	order           []string
	children        map[string]child
}

type child struct {
	labels string
	m      metric
}

type metric interface {
	// write renders the metric's sample lines. name is the family name,
	// labels the pre-rendered {k="v",...} body (may be empty).
	write(w io.Writer, name, labels string)
}

// family fetches or creates the named family, enforcing kind consistency.
func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, children: make(map[string]child)}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// register installs m under the family's label set, or returns the
// existing metric with that identity. Must be called with r.mu free;
// takes it via family access plus its own pass.
func (r *Registry) register(name, help, typ string, labelPairs []string, m metric) metric {
	labels := renderLabels(labelPairs)
	f := r.family(name, help, typ)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := f.children[labels]; ok {
		return c.m
	}
	f.children[labels] = child{labels: labels, m: m}
	f.order = append(f.order, labels)
	return m
}

// renderLabels builds the {…} body from ordered key/value pairs.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("metrics: odd label key/value list")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q alone implements the exposition-format escaping rules exactly
		// (backslash, quote, newline); pre-escaping on top of it would
		// double the backslashes and corrupt round-trips.
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	return b.String()
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, labels string) {
	writeSample(w, name, labels, float64(c.v.Load()))
}

// Counter fetches or creates a counter with the given identity. Label
// pairs are ordered key, value, key, value, …
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	return r.register(name, help, "counter", labelPairs, &Counter{}).(*Counter)
}

// funcMetric reads its value from a callback at scrape time.
type funcMetric struct {
	fn func() float64
}

func (g *funcMetric) write(w io.Writer, name, labels string) {
	writeSample(w, name, labels, g.fn())
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.register(name, help, "gauge", labelPairs, &funcMetric{fn: fn})
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for monotonic figures the process already tracks elsewhere.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.register(name, help, "counter", labelPairs, &funcMetric{fn: fn})
}

// Histogram is a fixed-bucket latency/size distribution.
type Histogram struct {
	uppers []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64
	total  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first bucket with upper >= v (le is inclusive)
	h.counts[i].Add(1)                    // i == len(uppers) => +Inf
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) write(w io.Writer, name, labels string) {
	cum := int64(0)
	for i, upper := range h.uppers {
		cum += h.counts[i].Load()
		writeSample(w, name+"_bucket", joinLabels(labels, fmt.Sprintf(`le="%s"`, formatBound(upper))), float64(cum))
	}
	cum += h.counts[len(h.uppers)].Load()
	writeSample(w, name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(cum))
	writeSample(w, name+"_sum", labels, h.Sum())
	writeSample(w, name+"_count", labels, float64(cum))
}

// DefBuckets spans microseconds to minutes — wide enough for both a warm
// cache hit (~10 µs) and a cold large-graph search.
var DefBuckets = []float64{
	1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10, 60,
}

// Histogram fetches or creates a histogram. A nil bucket slice selects
// DefBuckets; bounds must be sorted ascending.
func (r *Registry) Histogram(name, help string, buckets []float64, labelPairs ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("metrics: %s: unsorted buckets", name))
	}
	h := &Histogram{uppers: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
	return r.register(name, help, "histogram", labelPairs, h).(*Histogram)
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest decimal form.
func formatBound(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%g", v), "0"), ".")
}

func writeSample(w io.Writer, name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	switch {
	case math.IsInf(v, 1):
		fmt.Fprintf(w, "%s%s +Inf\n", name, labels)
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		fmt.Fprintf(w, "%s%s %d\n", name, labels, int64(v))
	default:
		fmt.Fprintf(w, "%s%s %g\n", name, labels, v)
	}
}

// WriteText renders the whole registry in Prometheus text format 0.0.4.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	type snap struct {
		f        *family
		children []child
	}
	snaps := make([]snap, 0, len(fams))
	for _, f := range fams {
		cs := make([]child, 0, len(f.order))
		for _, labels := range f.order {
			cs = append(cs, f.children[labels])
		}
		snaps = append(snaps, snap{f: f, children: cs})
	}
	r.mu.Unlock()
	for _, s := range snaps {
		fmt.Fprintf(w, "# HELP %s %s\n", s.f.name, s.f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", s.f.name, s.f.typ)
		for _, c := range s.children {
			c.m.write(w, s.f.name, c.labels)
		}
	}
}

// Handler serves the registry over HTTP (GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
