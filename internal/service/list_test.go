package service

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// submitDistinct runs n jobs to completion, each with a distinct options
// seed (distinct cache keys, so none is served from cache), and returns
// their IDs in submission order.
func submitDistinct(t *testing.T, m *Manager, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		opts := testOptions("descent")
		opts.Seed = int64(i + 1)
		info, err := m.Submit(Request{System: "fir-lp31(tab1)", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitDone(t, m, info.ID); fin.State != JobDone {
			t.Fatalf("job %s: %s (%s)", info.ID, fin.State, fin.Error)
		}
		ids = append(ids, info.ID)
	}
	return ids
}

func TestListPagePagination(t *testing.T) {
	m := testManager(t, Config{Workers: 1})
	ids := submitDistinct(t, m, 5)

	// Page through with limit 2: 2 + 2 + 1, cursors chaining exactly.
	var got []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 3 {
			t.Fatalf("pagination did not terminate; got %v", got)
		}
		page, err := m.ListPage(ListQuery{Limit: 2, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range page.Jobs {
			got = append(got, j.ID)
		}
		if page.NextCursor == "" {
			break
		}
		if want := got[len(got)-1]; page.NextCursor != want {
			t.Fatalf("next_cursor %q, want last ID of page %q", page.NextCursor, want)
		}
		cursor = page.NextCursor
	}
	if strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Fatalf("paged IDs %v, want %v", got, ids)
	}

	// A full final page must not dangle a cursor pointing at nothing.
	page, err := m.ListPage(ListQuery{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 5 || page.NextCursor != "" {
		t.Fatalf("exact-fit page: %d jobs, cursor %q", len(page.Jobs), page.NextCursor)
	}
}

func TestListPageStateFilterAndValidation(t *testing.T) {
	m := testManager(t, Config{Workers: 1})
	submitDistinct(t, m, 2)

	page, err := m.ListPage(ListQuery{State: JobDone})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 2 {
		t.Fatalf("%d done jobs, want 2", len(page.Jobs))
	}
	page, err = m.ListPage(ListQuery{State: JobFailed})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 0 {
		t.Fatalf("%d failed jobs, want 0", len(page.Jobs))
	}

	if _, err := m.ListPage(ListQuery{State: "nope"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown state error %v, want ErrBadRequest", err)
	}
	if _, err := m.ListPage(ListQuery{Cursor: "garbage"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad cursor error %v, want ErrBadRequest", err)
	}
}

func TestListPageDefaultAndClampedLimit(t *testing.T) {
	m := testManager(t, Config{Workers: 1})
	submitDistinct(t, m, 3)
	// Limit 0 applies the default (well above 3 here — all jobs return).
	page, err := m.ListPage(ListQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 3 || page.NextCursor != "" {
		t.Fatalf("default limit page: %d jobs, cursor %q", len(page.Jobs), page.NextCursor)
	}
	// An absurd limit is clamped, not rejected.
	if _, err := m.ListPage(ListQuery{Limit: 10 * MaxListLimit}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeIDPrefixesJobIDsAndCursorsStillWork(t *testing.T) {
	m := testManager(t, Config{Workers: 1, NodeID: "nodeA"})
	ids := submitDistinct(t, m, 2)
	for _, id := range ids {
		if !strings.HasPrefix(id, "nodeA-j") {
			t.Fatalf("job ID %q lacks node prefix", id)
		}
	}
	page, err := m.ListPage(ListQuery{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if page.NextCursor != ids[0] {
		t.Fatalf("cursor %q, want %q", page.NextCursor, ids[0])
	}
	page, err = m.ListPage(ListQuery{Limit: 1, Cursor: page.NextCursor})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 1 || page.Jobs[0].ID != ids[1] {
		t.Fatalf("second page %+v, want %q", page.Jobs, ids[1])
	}
}

func TestQueueStatsExposed(t *testing.T) {
	m := testManager(t, Config{Workers: 2, QueueSize: 7})
	st := m.Stats()
	if st.QueueCap != 7 || st.Workers != 2 || st.QueueLen != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestOnJobDoneFiresOncePerTerminalJob covers the three terminal paths the
// API layer's latency histograms depend on: a run to completion, a cache
// hit, and a queued-job cancellation.
func TestOnJobDoneFiresOncePerTerminalJob(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	states := map[string]JobState{}
	m := testManager(t, Config{Workers: 1, OnJobDone: func(info *JobInfo) {
		mu.Lock()
		seen[info.ID]++
		states[info.ID] = info.State
		mu.Unlock()
	}})

	info, err := m.Submit(Request{System: "fir-lp31(tab1)", Options: testOptions("descent")})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, info.ID)

	// Duplicate: served from cache, still a terminal job of its own.
	dup, err := m.Submit(Request{System: "fir-lp31(tab1)", Options: testOptions("descent")})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, dup.ID)

	mu.Lock()
	defer mu.Unlock()
	if seen[info.ID] != 1 || states[info.ID] != JobDone {
		t.Fatalf("leader hook: %d calls, state %s", seen[info.ID], states[info.ID])
	}
	if seen[dup.ID] != 1 || states[dup.ID] != JobDone {
		t.Fatalf("cache-hit hook: %d calls, state %s", seen[dup.ID], states[dup.ID])
	}
}

// TestWaitReturnsAfterOnJobDone: Wait returns only once the job's
// terminal hook has run, so a caller that waited sees what the hook
// recorded (the API layer's latency histograms among it).
func TestWaitReturnsAfterOnJobDone(t *testing.T) {
	var hooked atomic.Bool
	m := testManager(t, Config{Workers: 1, OnJobDone: func(*JobInfo) {
		time.Sleep(20 * time.Millisecond)
		hooked.Store(true)
	}})
	info, err := m.Submit(Request{System: "fir-lp31(tab1)", Options: testOptions("descent")})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, info.ID)
	if !hooked.Load() {
		t.Fatal("Wait returned before the job's OnJobDone hook ran")
	}
}
