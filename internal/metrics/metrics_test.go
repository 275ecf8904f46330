package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndExposition(t *testing.T) {
	r := New()
	c := r.Counter("requests_total", "Total requests.", "route", "submit", "code", "202")
	c.Inc()
	c.Inc()
	c.Inc()
	// Same identity returns the same metric.
	if again := r.Counter("requests_total", "Total requests.", "route", "submit", "code", "202"); again != c {
		t.Fatalf("re-registration created a new counter")
	}
	// Different labels create a sibling under the same family.
	r.Counter("requests_total", "Total requests.", "route", "submit", "code", "429").Inc()

	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP requests_total Total requests.",
		"# TYPE requests_total counter",
		`requests_total{route="submit",code="202"} 3`,
		`requests_total{route="submit",code="429"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeAndCounterFunc(t *testing.T) {
	r := New()
	depth := 7.0
	r.GaugeFunc("queue_depth", "Jobs waiting.", func() float64 { return depth })
	r.CounterFunc("cache_hits_total", "Cache hits.", func() float64 { return 42 })
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	if !strings.Contains(out, "queue_depth 7\n") || !strings.Contains(out, "# TYPE queue_depth gauge") {
		t.Fatalf("gauge exposition wrong:\n%s", out)
	}
	if !strings.Contains(out, "cache_hits_total 42\n") || !strings.Contains(out, "# TYPE cache_hits_total counter") {
		t.Fatalf("counter func exposition wrong:\n%s", out)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := New()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d", h.Count())
	}
	if math.Abs(h.Sum()-2.565) > 1e-12 {
		t.Fatalf("sum %g", h.Sum())
	}
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	// le is inclusive: 0.01 lands in the first bucket.
	for _, want := range []string{
		`latency_seconds_bucket{le="0.01"} 2`,
		`latency_seconds_bucket{le="0.1"} 3`,
		`latency_seconds_bucket{le="1"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		`latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := New()
	c := r.Counter("n", "n")
	h := r.Histogram("h", "h", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: counter %d, histogram %d", c.Value(), h.Count())
	}
	if math.Abs(h.Sum()-4000) > 1e-9 {
		t.Fatalf("histogram sum %g", h.Sum())
	}
}

func TestHandlerServesText(t *testing.T) {
	r := New()
	r.Counter("x_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Fatalf("body:\n%s", rec.Body.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	r.Counter("e_total", "e", "addr", "a\"b\\c\nd").Inc()
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	if strings.Count(out, "\n") != 3 { // HELP + TYPE + one sample line
		t.Fatalf("label newline leaked into exposition:\n%q", out)
	}
}
