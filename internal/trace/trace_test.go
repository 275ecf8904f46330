package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeSnapshot(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	tr := rec.StartTrace("")
	if tr.ID() == "" {
		t.Fatal("minted trace has empty ID")
	}
	root := tr.StartSpan("http.submit", nil)
	root.SetAttr("route", "submit")
	child := tr.StartSpan("job", root)
	grand := tr.StartSpan("queue.wait", child)
	grand.End()
	child.End()
	root.End()

	in, ok := rec.Snapshot(tr.ID())
	if !ok {
		t.Fatal("trace not found after recording")
	}
	if len(in.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(in.Spans))
	}
	byName := map[string]SpanInfo{}
	for _, s := range in.Spans {
		byName[s.Name] = s
	}
	if byName["http.submit"].Parent != "" {
		t.Errorf("root has parent %q", byName["http.submit"].Parent)
	}
	if byName["job"].Parent != byName["http.submit"].ID {
		t.Errorf("job parent = %q, want %q", byName["job"].Parent, byName["http.submit"].ID)
	}
	if byName["queue.wait"].Parent != byName["job"].ID {
		t.Errorf("queue.wait parent = %q, want %q", byName["queue.wait"].Parent, byName["job"].ID)
	}
	if byName["http.submit"].Attrs["route"] != "submit" {
		t.Errorf("attrs = %v", byName["http.submit"].Attrs)
	}
	if byName["http.submit"].InProgress {
		t.Error("ended span marked in progress")
	}
	tree := in.Tree()
	if !strings.Contains(tree, "queue.wait") || !strings.Contains(tree, in.TraceID) {
		t.Errorf("tree rendering missing content:\n%s", tree)
	}
}

func TestNilSpanAndTraceAreNoOps(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Error("nil trace ID not empty")
	}
	sp := tr.StartSpan("x", nil)
	if sp != nil {
		t.Fatal("nil trace minted a span")
	}
	// All of these must not panic.
	sp.SetAttr("k", "v")
	sp.End()
	sp.End()
	if sp.Trace() != nil {
		t.Error("nil span has identity")
	}
	ctx := With(context.Background(), sp)
	if got := SpanFrom(ctx); got != nil {
		t.Errorf("SpanFrom = %v, want nil", got)
	}
	child, ctx2 := Start(ctx, "child")
	if child != nil || ctx2 != ctx {
		t.Error("Start without active span allocated")
	}
	if SpanFrom(nil) != nil {
		t.Error("SpanFrom(nil ctx) != nil")
	}
}

func TestSpanCapDropsAndCounts(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SpansPerTrace: 4})
	tr := rec.StartTrace("")
	for i := 0; i < 10; i++ {
		sp := tr.StartSpan(fmt.Sprintf("s%d", i), nil)
		sp.SetAttr("i", fmt.Sprint(i)) // must be safe on over-cap spans
		sp.End()
	}
	in, _ := rec.Snapshot(tr.ID())
	if len(in.Spans) != 4 {
		t.Errorf("retained %d spans, want 4", len(in.Spans))
	}
	if in.Dropped != 6 {
		t.Errorf("dropped = %d, want 6", in.Dropped)
	}
}

func TestRecentRingEvictsButSlowestPins(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Recent: 4, Slowest: 2})
	slow := rec.StartTrace("slowtrace")
	sp := slow.StartSpanAt("big", nil, time.Now().Add(-time.Second))
	sp.End()
	var lastID string
	for i := 0; i < 10; i++ {
		tr := rec.StartTrace("")
		s := tr.StartSpan("tiny", nil)
		s.End()
		lastID = tr.ID()
	}
	if _, ok := rec.Snapshot("slowtrace"); !ok {
		t.Error("slow trace evicted despite slowest pin")
	}
	if _, ok := rec.Snapshot(lastID); !ok {
		t.Error("most recent trace missing")
	}
	sl := rec.Slowest(0)
	if len(sl) == 0 || sl[0].TraceID != "slowtrace" {
		t.Errorf("slowest = %+v, want slowtrace first", sl)
	}
	if sl[0].MaxSpan != "big" || sl[0].MaxDurationS < 0.9 {
		t.Errorf("slowest summary = %+v", sl[0])
	}
}

func TestStartTraceJoinsExisting(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	a := rec.StartTrace("sameid")
	b := rec.StartTrace("sameid")
	if a != b {
		t.Fatal("same ID produced distinct traces")
	}
	a.StartSpan("x", nil).End()
	b.StartSpan("y", nil).End()
	in, _ := rec.Snapshot("sameid")
	if len(in.Spans) != 2 {
		t.Errorf("joined trace has %d spans, want 2", len(in.Spans))
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	tr := rec.StartTrace("")
	sp := tr.StartSpan("client", nil)
	h := http.Header{}
	Inject(With(context.Background(), sp), h)
	id, parent, ok := Extract(h)
	if !ok || id != tr.ID() || parent != sp.id {
		t.Fatalf("Extract = (%q, %x, %v), want (%q, %x, true)", id, parent, ok, tr.ID(), sp.id)
	}

	// Receiver side: join and parent under the remote span.
	rec2 := NewRecorder(RecorderConfig{})
	tr2 := rec2.StartTrace(id)
	srv := tr2.StartSpanRemote("server", parent)
	srv.End()
	in, _ := rec2.Snapshot(id)
	if in.TraceID != tr.ID() {
		t.Errorf("remote trace ID = %q, want %q", in.TraceID, tr.ID())
	}
	if in.Spans[0].Parent != fmt.Sprintf("%016x", sp.id) {
		t.Errorf("remote parent = %q", in.Spans[0].Parent)
	}

	// Garbage headers are rejected.
	for _, bad := range []string{"", "has space", "bad\nnewline", strings.Repeat("a", 65) + ":00"} {
		h := http.Header{}
		if bad != "" {
			h.Set(Header, bad)
		}
		if _, _, ok := Extract(h); ok {
			t.Errorf("Extract accepted %q", bad)
		}
	}
	// Bare ID without span suffix is fine.
	h2 := http.Header{}
	h2.Set(Header, "abc123")
	id2, p2, ok2 := Extract(h2)
	if !ok2 || id2 != "abc123" || p2 != 0 {
		t.Errorf("bare header = (%q, %x, %v)", id2, p2, ok2)
	}
}

func TestMergeStitchesAcrossProcesses(t *testing.T) {
	// Router half.
	rrec := NewRecorder(RecorderConfig{})
	rtr := rrec.StartTrace("")
	proxy := rtr.StartSpan("proxy", nil)

	// Backend half joins via the header and parents under the proxy span.
	brec := NewRecorder(RecorderConfig{})
	btr := brec.StartTrace(rtr.ID())
	httpSp := btr.StartSpanRemote("http.submit", proxy.id)
	job := btr.StartSpan("job", httpSp)
	job.End()
	httpSp.End()
	proxy.End()

	own, _ := rrec.Snapshot(rtr.ID())
	remote, _ := brec.Snapshot(rtr.ID())
	merged := Merge(own, remote)
	if merged.TraceID != rtr.ID() {
		t.Errorf("merged ID = %q", merged.TraceID)
	}
	if len(merged.Spans) != 3 {
		t.Fatalf("merged %d spans, want 3", len(merged.Spans))
	}
	// The stitched tree must be single-rooted at the router's proxy span.
	tree := merged.Tree()
	lines := strings.Split(strings.TrimSpace(tree), "\n")
	if !strings.Contains(lines[1], "proxy") {
		t.Errorf("first span not proxy:\n%s", tree)
	}
	if !strings.Contains(tree, "    http.submit") {
		t.Errorf("backend span not nested under proxy:\n%s", tree)
	}
	if Merge(nil, nil).TraceID != "" {
		t.Error("merge of nils has an ID")
	}
}

func TestDebugHandlers(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	tr := rec.StartTrace("")
	sp := tr.StartSpan("work", nil)
	sp.End()

	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/traces", rec.ServeList)
	mux.HandleFunc("GET /debug/traces/{id}", rec.ServeDetail)

	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/traces", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("list status %d", rw.Code)
	}
	var list struct {
		Slowest []Summary `json:"slowest"`
		Recent  []Summary `json:"recent"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &list); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if len(list.Recent) != 1 || list.Recent[0].TraceID != tr.ID() {
		t.Errorf("recent = %+v", list.Recent)
	}

	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/traces/"+tr.ID(), nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("detail status %d", rw.Code)
	}
	var in Info
	if err := json.Unmarshal(rw.Body.Bytes(), &in); err != nil {
		t.Fatalf("detail decode: %v", err)
	}
	if len(in.Spans) != 1 || in.Spans[0].Name != "work" {
		t.Errorf("detail = %+v", in)
	}

	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/traces/nope", nil))
	if rw.Code != http.StatusNotFound {
		t.Errorf("missing trace status %d, want 404", rw.Code)
	}
}

// TestConcurrentRecording exercises span creation, attrs, End and
// snapshots racing across goroutines; run under -race in CI.
func TestConcurrentRecording(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Recent: 8, SpansPerTrace: 16, Slowest: 4})
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() { // concurrent scraper
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range rec.Recent(0) {
				rec.Snapshot(s.TraceID)
			}
			rec.Slowest(0)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr := rec.StartTrace("")
				root := tr.StartSpan("root", nil)
				for j := 0; j < 5; j++ {
					sp := tr.StartSpan("child", root)
					sp.SetAttr("j", fmt.Sprint(j))
					sp.End()
				}
				root.End()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-scraped
}
