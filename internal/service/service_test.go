package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/systems"
	"repro/internal/wlopt"
)

func testManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.NPSD == 0 {
		cfg.NPSD = 64
	}
	m := New(cfg)
	t.Cleanup(m.Close)
	return m
}

func testOptions(strategy string) spec.Options {
	return spec.Options{Strategy: strategy, BudgetWidth: 8, MinFrac: 4, MaxFrac: 10, Seed: 1}
}

func waitDone(t *testing.T, m *Manager, id string) *JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return info
}

func TestSubmitRegistrySystemMatchesDirectRun(t *testing.T) {
	m := testManager(t, Config{Workers: 2})
	info, err := m.Submit(Request{System: "dwt97(fig3)", Options: testOptions("hybrid")})
	if err != nil {
		t.Fatal(err)
	}
	if info.State == JobFailed {
		t.Fatalf("job failed at submit: %+v", info)
	}
	fin := waitDone(t, m, info.ID)
	if fin.State != JobDone {
		t.Fatalf("state %s, error %q", fin.State, fin.Error)
	}

	// Direct run with an independent engine must agree bit for bit.
	g, err := systems.NewDWT().Graph(10)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(64, 1)
	probe, err := eng.EvaluateAssignment(g, core.UniformAssignment(g.NoiseSources(), 8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := wlopt.RunStrategy(g, "hybrid", wlopt.Options{
		Budget: probe.Power, MinFrac: 4, MaxFrac: 10, Evaluator: eng, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.Budget != probe.Power {
		t.Fatalf("budget %g, want %g", fin.Budget, probe.Power)
	}
	got := fin.Result
	if got == nil {
		t.Fatal("no result")
	}
	if got.Power != want.Power || got.Cost != want.Cost || got.Evaluations != want.Evaluations ||
		got.UniformFrac != want.UniformFrac || !reflect.DeepEqual(got.Fracs, want.Fracs) {
		t.Fatalf("service result diverges from direct run:\n%+v\nvs\n%+v", got, want)
	}
}

func TestDuplicateSubmissionServedFromCache(t *testing.T) {
	m := testManager(t, Config{Workers: 2})
	req := Request{System: "decimator(M=4)", Options: testOptions("descent")}
	first, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	f1 := waitDone(t, m, first.ID)
	if f1.State != JobDone {
		t.Fatalf("first run: %s %q", f1.State, f1.Error)
	}
	if f1.CacheHit {
		t.Fatal("first submission cannot be a cache hit")
	}

	second, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("duplicate submission missed the cache")
	}
	if second.State != JobDone {
		t.Fatalf("cache hit should be immediately done, got %s", second.State)
	}
	if second.ID == first.ID {
		t.Fatal("cache hit must still mint a fresh job")
	}
	if !reflect.DeepEqual(second.Result, f1.Result) {
		t.Fatalf("cached result differs: %+v vs %+v", second.Result, f1.Result)
	}
	if hits := m.Stats().CacheHits; hits != 1 {
		t.Fatalf("cache hits %d, want 1", hits)
	}

	// Different options on the same system are different content.
	third, err := m.Submit(Request{System: "decimator(M=4)", Options: testOptions("ascent")})
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Fatal("different strategy must not hit the cache")
	}
	waitDone(t, m, third.ID)
}

func TestSubmitInlineSpecUsesEmbeddedOptions(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", "comb-notch.json"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	m := testManager(t, Config{Workers: 1})
	info, err := m.Submit(Request{Spec: sp}) // no request options: embedded ones apply
	if err != nil {
		t.Fatal(err)
	}
	if info.Strategy != "hybrid" {
		t.Fatalf("strategy %q, want the spec's embedded hybrid", info.Strategy)
	}
	fin := waitDone(t, m, info.ID)
	if fin.State != JobDone {
		t.Fatalf("state %s, error %q", fin.State, fin.Error)
	}
	if fin.System != "comb-notch" {
		t.Fatalf("system %q", fin.System)
	}
}

// TestSubmitParsedSpec submits an already digested spec: the job takes
// its digest and embedded options, and a request carrying it next to a
// Spec is ambiguous and rejected.
func TestSubmitParsedSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", "comb-notch.json"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.ParseDigested(data)
	if err != nil {
		t.Fatal(err)
	}
	m := testManager(t, Config{Workers: 1})
	if _, err := m.Submit(Request{Spec: d.Spec(), Parsed: d}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("spec and parsed both set: %v, want ErrBadRequest", err)
	}
	info, err := m.Submit(Request{Parsed: d})
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest != d.Digest() || info.Strategy != "hybrid" {
		t.Fatalf("digest %s, strategy %q; want %s and the embedded hybrid", info.Digest, info.Strategy, d.Digest())
	}
	if fin := waitDone(t, m, info.ID); fin.State != JobDone {
		t.Fatalf("state %s, error %q", fin.State, fin.Error)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := testManager(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"neither", Request{Options: testOptions("descent")}, ErrBadRequest},
		{"unknown system", Request{System: "nope", Options: testOptions("descent")}, ErrNotFound},
		{"unknown strategy", Request{System: "dwt97(fig3)", Options: spec.Options{Strategy: "magic", BudgetWidth: 8}}, ErrBadRequest},
		{"no budget", Request{System: "dwt97(fig3)", Options: spec.Options{Strategy: "descent"}}, ErrBadRequest},
	}
	for _, tc := range cases {
		if _, err := m.Submit(tc.req); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := m.Get("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get unknown: %v", err)
	}
	if _, err := m.Cancel("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	// Throttled steps leave a wide window to cancel mid-search.
	m := testManager(t, Config{Workers: 1, StepThrottle: 30 * time.Millisecond})
	info, err := m.Submit(Request{System: "dwt97(fig3)", Options: spec.Options{
		Strategy: "descent", BudgetWidth: 8, MinFrac: 4, MaxFrac: 14, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ch, stop, err := m.Watch(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var stepAtCancel int
	deadline := time.After(30 * time.Second)
	for stepAtCancel == 0 {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("job finished before a progress event arrived")
			}
			if ev.Type == "progress" && ev.Step >= 1 {
				stepAtCancel = ev.Step
			}
		case <-deadline:
			t.Fatal("no progress event within deadline")
		}
	}
	if _, err := m.Cancel(info.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, m, info.ID)
	if fin.State != JobCancelled {
		t.Fatalf("state %s, want cancelled (error %q)", fin.State, fin.Error)
	}
	if fin.Result == nil || !fin.Result.Cancelled {
		t.Fatalf("cancelled job should carry a best-so-far result, got %+v", fin.Result)
	}
	// Cooperative cancellation stops within one greedy step of the request.
	if fin.Step > stepAtCancel+1 {
		t.Fatalf("search ran %d steps past the cancel (step %d -> %d)",
			fin.Step-stepAtCancel, stepAtCancel, fin.Step)
	}
	// A cancelled (partial) result must not poison the cache.
	again, err := m.Submit(Request{System: "dwt97(fig3)", Options: spec.Options{
		Strategy: "descent", BudgetWidth: 8, MinFrac: 4, MaxFrac: 14, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("cancelled result was cached")
	}
	if _, err := m.Cancel(again.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, again.ID)
}

func TestCancelQueuedJobIsImmediate(t *testing.T) {
	// One throttled worker: the first job occupies it, the second waits in
	// the queue — cancelling the queued one must show "cancelled" at once,
	// not when a worker eventually pops it.
	m := testManager(t, Config{Workers: 1, StepThrottle: 20 * time.Millisecond})
	running, err := m.Submit(Request{System: "dwt97(fig3)", Options: spec.Options{
		Strategy: "descent", BudgetWidth: 8, MinFrac: 4, MaxFrac: 14, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(Request{System: "decimator(M=4)", Options: testOptions("descent")})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != JobCancelled {
		t.Fatalf("queued job state %s immediately after cancel, want cancelled", info.State)
	}
	if fin := waitDone(t, m, queued.ID); fin.State != JobCancelled || fin.Result != nil {
		t.Fatalf("cancelled-in-queue job: %+v", fin)
	}
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, running.ID)
}

func TestConcurrentSubmissionsAcrossSystemsAndStrategies(t *testing.T) {
	names, err := systems.RegistryNames()
	if err != nil {
		t.Fatal(err)
	}
	m := testManager(t, Config{Workers: 4})
	var wg sync.WaitGroup
	type outcome struct {
		system, strategy string
		info             *JobInfo
	}
	results := make(chan outcome, len(names)*len(wlopt.Strategies()))
	for _, sys := range names {
		for _, strat := range wlopt.Strategies() {
			wg.Add(1)
			go func(sys, strat string) {
				defer wg.Done()
				info, err := m.Submit(Request{System: sys, Options: testOptions(strat)})
				if err != nil {
					t.Errorf("%s/%s: %v", sys, strat, err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				fin, err := m.Wait(ctx, info.ID)
				if err != nil {
					t.Errorf("%s/%s: wait: %v", sys, strat, err)
					return
				}
				results <- outcome{sys, strat, fin}
			}(sys, strat)
		}
	}
	wg.Wait()
	close(results)
	n := 0
	for oc := range results {
		n++
		if oc.info.State != JobDone {
			t.Fatalf("%s/%s: %s %q", oc.system, oc.strategy, oc.info.State, oc.info.Error)
		}
		if oc.info.Result.Power > oc.info.Budget {
			t.Fatalf("%s/%s: power %g over budget %g", oc.system, oc.strategy, oc.info.Result.Power, oc.info.Budget)
		}
	}
	if n != len(names)*len(wlopt.Strategies()) {
		t.Fatalf("%d outcomes", n)
	}
	st := m.Stats()
	if st.Done != n {
		t.Fatalf("stats done %d, want %d", st.Done, n)
	}
}

// TestWatchReplaysHistory: progress is a state, not a log — a watcher
// that subscribes after completion receives exactly one event, the
// terminal one, whose Seq counts every event the job published.
func TestWatchReplaysHistory(t *testing.T) {
	m := testManager(t, Config{Workers: 1})
	info, err := m.Submit(Request{System: "interpolator(L=4)", Options: testOptions("ascent")})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, m, info.ID)
	ch, stop, err := m.Watch(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var events []Event
	for ev := range ch {
		events = append(events, ev)
	}
	if len(events) != 1 {
		t.Fatalf("late watcher got %d events, want 1: %+v", len(events), events)
	}
	last := events[0]
	if !last.Terminal || last.State != JobDone || last.JobID != info.ID {
		t.Fatalf("late watcher's event %+v, want the terminal done event", last)
	}
	// queued, running, one progress event per search step, done.
	if published := fin.Step + 3; last.Seq != published {
		t.Fatalf("terminal seq %d, want %d (events published)", last.Seq, published)
	}
}

// TestLaggingWatcherGetsTerminal: a watcher that falls further behind
// than its channel buffer may lose progress events, but never the
// terminal one. It subscribes before a 3000-round anneal starts and reads
// nothing until the job is done.
func TestLaggingWatcherGetsTerminal(t *testing.T) {
	m := testManager(t, Config{Workers: 1})
	opts := testOptions("anneal")
	opts.AnnealRounds = 3000
	info, err := m.Submit(Request{System: "dwt97(fig3)", Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	ch, stop, err := m.Watch(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	waitDone(t, m, info.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var last Event
	terminals := 0
	for drained := false; !drained; {
		select {
		case ev, ok := <-ch:
			if !ok {
				drained = true
				break
			}
			last = ev
			if ev.Terminal {
				terminals++
			}
		case <-ctx.Done():
			t.Fatal("watch channel never closed")
		}
	}
	if terminals != 1 || !last.Terminal || last.State != JobDone {
		t.Fatalf("lagging watcher saw %d terminal events, last %+v; want exactly one, done, last", terminals, last)
	}
}

func TestSystemsListing(t *testing.T) {
	m := testManager(t, Config{})
	list, err := m.Systems()
	if err != nil {
		t.Fatal(err)
	}
	names, err := systems.RegistryNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != len(names) {
		t.Fatalf("%d systems listed, want %d", len(list), len(names))
	}
	for i, si := range list {
		if si.Name != names[i] {
			t.Fatalf("listed %q, want %q", si.Name, names[i])
		}
		if si.Digest == "" || si.Sources < 1 || si.Nodes < 3 {
			t.Fatalf("suspicious listing %+v", si)
		}
	}
}

func TestQueueFullAndClose(t *testing.T) {
	m := New(Config{NPSD: 64, Workers: 1, QueueSize: 1, StepThrottle: 20 * time.Millisecond})
	// Fill: one running (eventually) + one queued; the next submit bounces.
	ids := []string{}
	var bounced bool
	for i := 0; i < 8; i++ {
		info, err := m.Submit(Request{System: "dwt97(fig3)", Options: spec.Options{
			Strategy: "descent", BudgetWidth: 8, MinFrac: 4, MaxFrac: 16, Seed: int64(i + 1),
		}})
		if errors.Is(err, ErrQueueFull) {
			bounced = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	if !bounced {
		t.Fatal("queue never filled")
	}
	// Close cancels everything in flight and drains cleanly.
	m.Close()
	for _, id := range ids {
		info, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !info.State.Terminal() {
			t.Fatalf("job %s left in state %s after Close", id, info.State)
		}
	}
	if _, err := m.Submit(Request{System: "dwt97(fig3)", Options: testOptions("descent")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestJobHistoryEviction(t *testing.T) {
	m := testManager(t, Config{Workers: 1, JobHistory: 3})
	var last *JobInfo
	for i := 0; i < 6; i++ {
		info, err := m.Submit(Request{System: "fir-lp31(tab1)", Options: spec.Options{
			Strategy: "descent", BudgetWidth: 8, MinFrac: 4, MaxFrac: 10, Seed: int64(i + 1),
		}})
		if err != nil {
			t.Fatal(err)
		}
		last = waitDone(t, m, info.ID)
	}
	page, err := m.ListPage(ListQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(page.Jobs); got > 3 {
		t.Fatalf("history holds %d jobs, cap 3", got)
	}
	if _, err := m.Get(last.ID); err != nil {
		t.Fatalf("most recent job evicted: %v", err)
	}
}
