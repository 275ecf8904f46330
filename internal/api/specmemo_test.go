package api

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/service"
	"repro/internal/spec"
)

// memoSpec and memoSpecRespelled are one system in two spellings:
// different whitespace and key order, the same digest.
const (
	memoSpec = `{"version":1,"name":"memo","nodes":[` +
		`{"name":"in","kind":"input","noise":{"frac":12}},` +
		`{"name":"f","kind":"filter","filter":{"fir":{"band":"lowpass","taps":15,"f1":0.2,"window":"hamming"}},"noise":{"frac":12}},` +
		`{"name":"g","kind":"gain","gain":0.5,"noise":{"frac":12}},` +
		`{"name":"out","kind":"output"}],` +
		`"edges":[["in","f"],["f","g"],["g","out"]]}`
	memoSpecRespelled = `{
  "edges": [["in", "f"], ["f", "g"], ["g", "out"]],
  "nodes": [
    {"kind": "input", "name": "in", "noise": {"frac": 12}},
    {"filter": {"fir": {"f1": 0.2, "taps": 15, "band": "lowpass", "window": "hamming"}}, "kind": "filter", "name": "f", "noise": {"frac": 12}},
    {"gain": 0.5, "kind": "gain", "name": "g", "noise": {"frac": 12}},
    {"name": "out", "kind": "output"}
  ],
  "name": "memo",
  "version": 1
}`
	memoOptions = `{"strategy":"descent","budget_width":8,"min_frac":4,"max_frac":10,"seed":1}`
)

// newMemoServer is newTestServer that also returns the Server, so a test
// can inspect its spec memo.
func newMemoServer(t *testing.T, cfg ServerConfig) (*Client, *Server, *service.Manager) {
	t.Helper()
	mgr := service.New(service.Config{NPSD: 64, Workers: 2})
	srv := NewServer(mgr, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return NewClient(ts.URL), srv, mgr
}

// coldDigest is the digest of a spec parsed and digested without a memo.
func coldDigest(t *testing.T, raw string) string {
	t.Helper()
	sp, err := spec.Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	d, err := sp.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// boundsErr reports a memo that holds more than its caps allow, or whose
// byte count, index and recency list disagree.
func boundsErr(m *SpecMemo) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	held := 0
	for el := m.lru.Front(); el != nil; el = el.Next() {
		held += len(el.Value.(*memoEntry).raw)
	}
	if len(m.entries) > specMemoEntries || m.bytes > specMemoBytes ||
		len(m.entries) != m.lru.Len() || held != m.bytes {
		return fmt.Errorf("memo holds %d entries (list %d) and %d bytes (counted %d); caps %d and %d",
			len(m.entries), m.lru.Len(), m.bytes, held, specMemoEntries, specMemoBytes)
	}
	return nil
}

// TestSpecMemoConcurrentSpellings submits one inline spec in two spellings
// and under two seeds from many goroutines over HTTP, while others flood
// the memo with more spellings than it may hold: first more than its
// entry cap, then more than its byte cap. Every job gets the digest of a
// cold parse, both spellings share one result-cache entry per seed, and
// the memo never exceeds its caps. The two seeds' searches run at once,
// on the one parsed spec the memo shares.
func TestSpecMemoConcurrentSpellings(t *testing.T) {
	cl, srv, mgr := newMemoServer(t, ServerConfig{})
	want := coldDigest(t, memoSpec)
	if d := coldDigest(t, memoSpecRespelled); d != want {
		t.Fatalf("spellings digest differently: %s vs %s", d, want)
	}
	var bodies [][]byte
	for _, seed := range []string{"1", "2"} {
		opts := strings.Replace(memoOptions, `"seed":1`, `"seed":`+seed, 1)
		bodies = append(bodies,
			[]byte(`{"spec":`+memoSpec+`,"options":`+opts+`}`),
			[]byte(`{"options":`+opts+`, "spec": `+memoSpecRespelled+`}`))
	}
	// Spellings padded with whitespace: small ones past the entry cap,
	// then large ones past the byte cap.
	var floods [][]byte
	for i := 0; i < specMemoEntries+32; i++ {
		floods = append(floods, []byte(`{`+strings.Repeat(" ", 1+i)+memoSpec[1:]))
	}
	for i := 0; i < 48; i++ {
		floods = append(floods, []byte(`{`+strings.Repeat(" ", 32<<10+i)+memoSpec[1:]))
	}
	const submitters, rounds, flooders = 8, 2, 4
	ctx := context.Background()
	errs := make(chan error, submitters*rounds*len(bodies)+len(floods))
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, body := range bodies {
					info, _, err := cl.SubmitBody(ctx, body)
					if err == nil && !info.State.Terminal() {
						info, err = cl.Wait(ctx, info.ID)
					}
					switch {
					case err != nil:
						errs <- err
					case info.State != service.JobDone || info.Digest != want:
						errs <- fmt.Errorf("job %s: state %s, digest %s", info.ID, info.State, info.Digest)
					}
				}
			}
		}()
	}
	for f := 0; f < flooders; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := f; i < len(floods); i += flooders {
				d, err := srv.memo.parse(floods[i])
				if err == nil && d.Digest() != want {
					err = fmt.Errorf("flood spelling %d: digest %s", i, d.Digest())
				}
				if err == nil {
					err = boundsErr(srv.memo)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := boundsErr(srv.memo); err != nil {
		t.Fatal(err)
	}
	if st := mgr.Stats(); st.ResultCacheLen != 2 {
		t.Fatalf("result cache holds %d entries, want one per seed, shared by both spellings", st.ResultCacheLen)
	}
	lookups := int64(submitters*rounds*len(bodies) + len(floods))
	if got := srv.memo.hits.Value() + srv.memo.misses.Value(); got != lookups {
		t.Fatalf("memo hits+misses %d, want %d lookups", got, lookups)
	}
	// Once held, the same bytes give every job the same parsed spec.
	a, err := srv.memo.parse([]byte(memoSpec))
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := srv.memo.parse([]byte(memoSpec)); a != b {
		t.Fatal("two lookups of the same bytes returned different parsed specs")
	}
}

// TestSpecMemoBadSpecRejectedIdentically submits bad nested specs twice
// each. Both submissions get the envelope an unmemoized server gives
// (recorded from one), and the memo holds none of them.
func TestSpecMemoBadSpecRejectedIdentically(t *testing.T) {
	cl, srv, _ := newMemoServer(t, ServerConfig{})
	badKind := strings.Replace(memoSpec, `"kind":"gain"`, `"kind":"gian"`, 1)
	cases := map[string]struct {
		body string
		want Error
	}{
		"syntax": {
			body: "{\"spec\": {\n  \"nodes\": [,]\n}, \"options\": " + memoOptions + "}",
			want: Error{Code: CodeBadSpec, Line: 2, Col: 14,
				Message: "bad spec: invalid character ',' looking for beginning of value (as raw spec: spec: line 2, column 14: invalid character ',' looking for beginning of value)"},
		},
		"unknown field": {
			body: `{"spec":` + strings.Replace(memoSpec, `"frac":12}},`, `"frac":12,"frac_inn":16}},`, 1) + `,"options":` + memoOptions + `}`,
			want: Error{Code: CodeBadSpec,
				Message: `bad spec: json: unknown field "frac_inn" (as raw spec: spec: json: unknown field "spec")`},
		},
		"semantic": {
			body: `{"spec":` + badKind + `,"options":` + memoOptions + `}`,
			want: Error{Code: CodeBadSpec,
				Message: `bad spec: spec: nodes[2] ("g"): unknown kind "gian" (want input|output|filter|gain|delay|adder|down|up)`},
		},
		// Options are checked before the spec, with or without the memo.
		"semantic with bad options": {
			body: `{"spec":` + badKind + `,"options":{"budget_width":8,"min_frac":9,"max_frac":4}}`,
			want: Error{Code: CodeBadRequest, Message: "bad request: spec: options: bad width bounds [9, 4]"},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 2; i++ {
				_, status, err := cl.SubmitBody(context.Background(), []byte(tc.body))
				e, ok := err.(*Error)
				if !ok || status != http.StatusBadRequest {
					t.Fatalf("submit %d: status %d, %v; want a 400 API error", i, status, err)
				}
				if e.Code != tc.want.Code || e.Message != tc.want.Message || e.Line != tc.want.Line || e.Col != tc.want.Col {
					t.Fatalf("submit %d: envelope %+v, want %+v", i, e, tc.want)
				}
			}
		})
	}
	if err := boundsErr(srv.memo); err != nil {
		t.Fatal(err)
	}
	if n := len(srv.memo.entries); n != 0 {
		t.Fatalf("memo holds %d bad specs", n)
	}
}

// TestSpecMemoOversizeSpecNotHeld submits, twice, a spec longer than the
// memo's byte cap (padded with whitespace, under a raised MaxBody): both
// submissions are served, and the spec is parsed each time and never held.
func TestSpecMemoOversizeSpecNotHeld(t *testing.T) {
	cl, srv, _ := newMemoServer(t, ServerConfig{MaxBody: 2 * specMemoBytes})
	raw := `{` + strings.Repeat(" ", specMemoBytes) + memoSpec[1:]
	body := []byte(`{"spec":` + raw + `,"options":` + memoOptions + `}`)
	want := coldDigest(t, memoSpec)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		info, _, err := cl.SubmitBody(ctx, body)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if info, err = cl.Wait(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		if info.State != service.JobDone || info.Digest != want || info.CacheHit != (i == 1) {
			t.Fatalf("submit %d: state %s, digest %s, cache hit %v", i, info.State, info.Digest, info.CacheHit)
		}
		if got := srv.memo.misses.Value(); got != int64(i+1) {
			t.Fatalf("submit %d: %d memo misses, want %d", i, got, i+1)
		}
	}
	if len(srv.memo.entries) != 0 || srv.memo.bytes != 0 {
		t.Fatalf("memo holds %d entries, %d bytes", len(srv.memo.entries), srv.memo.bytes)
	}
}

// specMemoHitAllocs bounds the allocations of a ParseSubmitBody call whose
// spec the memo holds: the envelope decoder, its reader and buffers, and
// the raw spec value it copies out. Measured at 17 with Go 1.24, against
// 94 for spec.ParseDigested of memoSpec.
const specMemoHitAllocs = 20

// TestSpecMemoHitAllocations pins what a memo hit costs: a submit body
// decode and a lookup, with no parse, validation or digest.
func TestSpecMemoHitAllocations(t *testing.T) {
	m := NewSpecMemo(NewServerMetrics(nil).Registry(), "wlopt")
	body := []byte(`{"spec":` + memoSpec + `,"options":` + memoOptions + `}`)
	first, err := m.ParseSubmitBody(body)
	if err != nil || first.Parsed == nil {
		t.Fatalf("first parse: %+v, %v", first, err)
	}
	var req service.Request
	allocs := testing.AllocsPerRun(100, func() {
		req, err = m.ParseSubmitBody(body)
	})
	if err != nil || req.Parsed != first.Parsed {
		t.Fatalf("hit returned %+v, %v; want the held spec", req, err)
	}
	if allocs > specMemoHitAllocs {
		t.Fatalf("memo hit allocates %.0f objects, bound %d", allocs, specMemoHitAllocs)
	}
	cold := testing.AllocsPerRun(10, func() {
		if _, err := spec.ParseDigested([]byte(memoSpec)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("memo hit: %.0f allocs; cold parse and digest: %.0f allocs", allocs, cold)
}

// TestSubmitEnvelopeKeysOnSpecBytes pins what the memo keys on: the spec
// value's own bytes, without the whitespace around it, whether it comes
// in an envelope or as a raw spec document.
func TestSubmitEnvelopeKeysOnSpecBytes(t *testing.T) {
	m := NewSpecMemo(NewServerMetrics(nil).Registry(), "wlopt")
	for _, body := range []string{
		`{"spec":` + memoSpec + `}`,
		"{\"spec\" :\n\t" + memoSpec + " \n}",
		`{"options":{},"spec":` + memoSpec + `}`,
		memoSpec,
	} {
		if _, err := m.ParseSubmitBody([]byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.entries) != 1 || m.hits.Value() != 3 {
		t.Fatalf("%d entries, %d hits; want 1 entry hit 3 times", len(m.entries), m.hits.Value())
	}
}
