package service

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/spec"
)

// drainWatch reads a watch channel until it closes and returns every
// event it yielded.
func drainWatch(t *testing.T, ch <-chan Event) []Event {
	t.Helper()
	timeout := time.After(10 * time.Second)
	var events []Event
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return events
			}
			events = append(events, ev)
		case <-timeout:
			t.Fatalf("watch channel still open after 10s; got %+v", events)
		}
	}
}

// checkOneTerminal asserts that a drained watch ended on exactly one
// terminal event in the wanted state, with nothing after it.
func checkOneTerminal(t *testing.T, who string, events []Event, want JobState) {
	t.Helper()
	terminals := 0
	for _, ev := range events {
		if ev.Terminal {
			terminals++
		}
	}
	if terminals != 1 || !events[len(events)-1].Terminal {
		t.Fatalf("%s watcher saw %d terminal events (last of %d: %+v), want exactly one, last",
			who, terminals, len(events), events[len(events)-1])
	}
	if got := events[len(events)-1].State; got != want {
		t.Fatalf("%s watcher's terminal state %s, want %s", who, got, want)
	}
}

// blockWorker occupies a one-worker manager with a throttled search, so
// the next submission waits in the queue; release cancels it.
func blockWorker(t *testing.T, m *Manager) (release func()) {
	t.Helper()
	info, err := m.Submit(Request{System: "dwt97(fig3)", Options: spec.Options{
		Strategy: "descent", BudgetWidth: 8, MinFrac: 4, MaxFrac: 14, Seed: 99,
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitRunningStep(t, m, info.ID)
	return func() {
		if _, err := m.Cancel(info.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEveryTerminalPathSignalsDone walks every way a job can end. On each,
// Wait returns the terminal snapshot, and a watcher subscribed before the
// end and one subscribed after it each see exactly one terminal event.
func TestEveryTerminalPathSignalsDone(t *testing.T) {
	throttled := Config{Workers: 1, StepThrottle: 5 * time.Millisecond}
	submit := func(t *testing.T, m *Manager, opts spec.Options) string {
		t.Helper()
		info, err := m.Submit(Request{System: "dwt97(fig3)", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		return info.ID
	}
	cases := []struct {
		name string
		want JobState
		// setup returns the manager, the job to watch, and end, which
		// brings the job to its terminal state (nil: it gets there by
		// itself). The job must not be terminal yet unless early is set.
		setup func(t *testing.T) (m *Manager, id string, end func())
		// early marks a job already terminal when Submit returns, so no
		// watcher can subscribe before its end.
		early bool
	}{
		{name: "done", want: JobDone, setup: func(t *testing.T) (*Manager, string, func()) {
			m := testManager(t, throttled)
			release := blockWorker(t, m)
			return m, submit(t, m, testOptions("descent")), release
		}},
		{name: "failed", want: JobFailed, setup: func(t *testing.T) (*Manager, string, func()) {
			m := testManager(t, throttled)
			release := blockWorker(t, m)
			// No assignment reaches a budget this small.
			return m, submit(t, m, spec.Options{Strategy: "descent", Budget: 1e-300, MinFrac: 4, MaxFrac: 10}), release
		}},
		{name: "cancelled while queued", want: JobCancelled, setup: func(t *testing.T) (*Manager, string, func()) {
			m := testManager(t, throttled)
			blockWorker(t, m) // Close cancels it
			id := submit(t, m, testOptions("descent"))
			return m, id, func() { m.Cancel(id) }
		}},
		{name: "cancelled while running", want: JobCancelled, setup: func(t *testing.T) (*Manager, string, func()) {
			m := testManager(t, throttled)
			id := submit(t, m, testOptions("descent"))
			waitRunningStep(t, m, id)
			return m, id, func() { m.Cancel(id) }
		}},
		{name: "shed at deadline while queued", want: JobFailed, setup: func(t *testing.T) (*Manager, string, func()) {
			// Slow steps keep the blocker running well past the deadline.
			m := testManager(t, Config{Workers: 1, StepThrottle: 50 * time.Millisecond})
			blockWorker(t, m)
			return m, submit(t, m, deadlinedOptions("descent", 200)), nil
		}},
		{name: "follower answered by leader", want: JobDone, setup: func(t *testing.T) (*Manager, string, func()) {
			m := testManager(t, throttled)
			leader := submit(t, m, testOptions("descent"))
			waitRunningStep(t, m, leader)
			return m, submit(t, m, testOptions("descent")), nil
		}},
		{name: "follower promoted after leader cancel", want: JobDone, setup: func(t *testing.T) (*Manager, string, func()) {
			m := testManager(t, throttled)
			leader := submit(t, m, testOptions("descent"))
			waitRunningStep(t, m, leader)
			return m, submit(t, m, testOptions("descent")), func() { m.Cancel(leader) }
		}},
		{name: "cache hit", want: JobDone, early: true, setup: func(t *testing.T) (*Manager, string, func()) {
			m := testManager(t, Config{Workers: 1})
			waitDone(t, m, submit(t, m, testOptions("descent")))
			return m, submit(t, m, testOptions("descent")), nil
		}},
		{name: "recovered from journal", want: JobDone, setup: func(t *testing.T) (*Manager, string, func()) {
			dir := t.TempDir()
			m1 := New(Config{NPSD: 64, Workers: 1, StepThrottle: 50 * time.Millisecond, Store: testStore(t, dir)})
			id := submit(t, m1, testOptions("descent"))
			m1.Halt()
			cfg := throttled
			cfg.Store = testStore(t, dir)
			return testManager(t, cfg), id, nil
		}},
		{name: "close", want: JobCancelled, setup: func(t *testing.T) (*Manager, string, func()) {
			m := testManager(t, throttled)
			id := submit(t, m, testOptions("descent"))
			waitRunningStep(t, m, id)
			return m, id, m.Close
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, id, end := tc.setup(t)
			before, stopBefore, err := m.Watch(id)
			if err != nil {
				t.Fatal(err)
			}
			defer stopBefore()
			// The mailbox is seeded at subscription, so the first event
			// shows whether the watcher got in before the end.
			first := <-before
			if first.Terminal != tc.early {
				t.Fatalf("before watcher's first event %+v; want terminal = %v", first, tc.early)
			}
			if end != nil {
				end()
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			fin, err := m.Wait(ctx, id)
			if err != nil {
				t.Fatalf("wait: %v", err)
			}
			if fin.ID != id || fin.State != tc.want {
				t.Fatalf("wait returned %s in state %s (error %q), want %s in %s", fin.ID, fin.State, fin.Error, id, tc.want)
			}
			events := append([]Event{first}, drainWatch(t, before)...)
			checkOneTerminal(t, "before", events, tc.want)

			after, stopAfter, err := m.Watch(id)
			if err != nil {
				t.Fatal(err)
			}
			defer stopAfter()
			events = drainWatch(t, after)
			if len(events) != 1 {
				t.Fatalf("after watcher got %d events, want only the terminal one: %+v", len(events), events)
			}
			checkOneTerminal(t, "after", events, tc.want)
		})
	}
}

// TestSubscribeRacesTerminal: watchers subscribing while the job finishes
// each get exactly one terminal event, then a closed channel — whether
// they registered before the terminal transition or after it.
func TestSubscribeRacesTerminal(t *testing.T) {
	m := testManager(t, Config{Workers: 1})
	info, err := m.Submit(Request{System: "fir-lp31(tab1)", Options: testOptions("descent")})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ch, stop, err := m.Watch(info.ID)
			if err != nil {
				t.Error(err)
				return
			}
			defer stop()
			timeout := time.After(10 * time.Second)
			terminals := 0
			for {
				select {
				case ev, ok := <-ch:
					if !ok {
						if terminals != 1 {
							t.Errorf("watcher saw %d terminal events before close, want 1", terminals)
						}
						return
					}
					if terminals > 0 {
						t.Errorf("event %+v after the terminal one", ev)
					}
					if ev.Terminal {
						terminals++
					}
				case <-timeout:
					t.Errorf("watch channel still open after 10s (%d terminal events)", terminals)
					return
				}
			}
		}()
	}
	close(start)
	waitDone(t, m, info.ID)
	wg.Wait()
	if st := m.Stats(); st.Watchers != 0 {
		t.Fatalf("watchers = %d after every stream ended, want 0", st.Watchers)
	}
}

// TestProgressRetainsNoLog: a finished job keeps its latest event, not
// its progress history, so a retained job costs the same memory whether
// its search took 2,000 steps or 20,000.
func TestProgressRetainsNoLog(t *testing.T) {
	m := testManager(t, Config{Workers: 1})
	retained := func(rounds int) uint64 {
		opts := testOptions("anneal")
		opts.AnnealRounds = rounds
		info, err := m.Submit(Request{System: "dwt97(fig3)", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitDone(t, m, info.ID); fin.Step != rounds {
			t.Fatalf("anneal of %d rounds made %d steps", rounds, fin.Step)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	short := retained(2000)
	long := retained(20000)
	if diff := int64(long) - int64(short); diff >= 256<<10 {
		t.Fatalf("retained heap grew by %d B from a 2,000- to a 20,000-round job, want < 256 KiB", diff)
	}
}
