package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/spec"
)

// TestRouterSpecMemoSharesShard submits one inline spec three times
// through the router, the third in another spelling. All three land on
// the same backend, the repeats are result-cache hits, and both the
// router and the backend parse each spelling once: their spec memos
// count two misses and one hit.
func TestRouterSpecMemoSharesShard(t *testing.T) {
	cl, _, backends := newCluster(t, 2, service.Config{})
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", "comb-notch.json"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := sp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := json.Marshal(testOptions("descent", 1))
	if err != nil {
		t.Fatal(err)
	}
	a := []byte(`{"spec":` + string(compact) + `,"options":` + string(opts) + `}`)
	b := []byte(`{"options":` + string(opts) + `,"spec":` + string(indented) + `}`)

	var owner string
	for i, body := range [][]byte{a, a, b} {
		resp, err := http.Post(cl.BaseURL()+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var info service.JobInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := http.StatusOK // a result-cache hit
		if i == 0 {
			want = http.StatusAccepted
		}
		if resp.StatusCode != want {
			t.Fatalf("submit %d: status %d, want %d", i, resp.StatusCode, want)
		}
		if i == 0 {
			owner = resp.Header.Get(router.BackendHeader)
			if _, err := cl.Wait(context.Background(), info.ID); err != nil {
				t.Fatal(err)
			}
		} else if got := resp.Header.Get(router.BackendHeader); got != owner {
			t.Fatalf("submit %d routed to %s, first to %s", i, got, owner)
		}
	}

	for _, b := range backends {
		if b.url != owner {
			continue
		}
		m := scrapeMetrics(t, b.url)
		for _, want := range []string{"wlopt_spec_memo_hits_total 1\n", "wlopt_spec_memo_misses_total 2\n"} {
			if !strings.Contains(m, want) {
				t.Errorf("owner metrics lack %q", want)
			}
		}
	}
	m := scrapeMetrics(t, cl.BaseURL())
	for _, want := range []string{"wloptr_spec_memo_hits_total 1\n", "wloptr_spec_memo_misses_total 2\n"} {
		if !strings.Contains(m, want) {
			t.Errorf("router metrics lack %q", want)
		}
	}
}
