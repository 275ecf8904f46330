package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/trace"
)

// TestBodyFramingOnBothDaemons: a submit body is read the same way
// whether it declares its length or arrives chunked, on a backend
// (api.Server, as in wloptd) and through the router (wloptr), each
// limited to maxBody bytes. A body within the limit is accepted either
// way, one at exactly the limit included. A body past the limit is a 400
// bad_request whose message names the limit, whether or not its header
// declared the excess.
func TestBodyFramingOnBothDaemons(t *testing.T) {
	const maxBody = 512
	mgr := service.New(service.Config{NPSD: 64, Workers: 1, NodeID: "b1"})
	srv := api.NewServer(mgr, api.ServerConfig{MaxBody: maxBody, Addr: "b1", Tracer: trace.NewRecorder(trace.RecorderConfig{})})
	backend := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { backend.Close(); mgr.Close() })
	rt := router.New(router.Config{
		Pool:    router.PoolConfig{Backends: []string{backend.URL}, ProbeInterval: 20 * time.Millisecond, ProbeTimeout: 2 * time.Second, EjectAfter: 2},
		Addr:    "router:0",
		MaxBody: maxBody,
	})
	rt.Start()
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close() })

	// body returns a submit of size bytes (padded with spaces), unique
	// per seed so every accepted one is a fresh job.
	body := func(seed, size int) []byte {
		b := []byte(fmt.Sprintf(`{"system":"decimator(M=4)","options":{"budget_width":8,"min_frac":4,"max_frac":10,"seed":%d}}`, seed))
		if len(b) > size {
			t.Fatalf("submit of %d bytes does not fit %d", len(b), size)
		}
		return append(b, bytes.Repeat([]byte(" "), size-len(b))...)
	}
	seed := 0
	for daemon, url := range map[string]string{"backend": backend.URL, "router": front.URL} {
		for _, tc := range []struct {
			name    string
			size    int
			chunked bool
			status  int
		}{
			{"exact", 200, false, http.StatusAccepted},
			{"exact at the limit", maxBody, false, http.StatusAccepted},
			{"chunked", 200, true, http.StatusAccepted},
			{"chunked at the limit", maxBody, true, http.StatusAccepted},
			{"oversize declared", maxBody + 1, false, http.StatusBadRequest},
			{"oversize chunked", maxBody + 1, true, http.StatusBadRequest},
			{"far oversize declared", 8 * maxBody, false, http.StatusBadRequest},
			{"far oversize chunked", 8 * maxBody, true, http.StatusBadRequest},
		} {
			seed++
			label := daemon + "/" + tc.name
			var rd io.Reader = bytes.NewReader(body(seed, tc.size))
			if tc.chunked {
				rd = io.MultiReader(rd) // hides the length: sent chunked
			}
			req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", rd)
			if err != nil {
				t.Fatal(err)
			}
			if tc.chunked {
				req.ContentLength = -1
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("%s: status %d, want %d: %s", label, resp.StatusCode, tc.status, data)
			}
			if tc.status == http.StatusAccepted {
				var info service.JobInfo
				if err := json.Unmarshal(data, &info); err != nil || info.ID == "" {
					t.Fatalf("%s: not a job: %s (%v)", label, data, err)
				}
				continue
			}
			var e api.ErrorEnvelope
			if err := json.Unmarshal(data, &e); err != nil || e.Error == nil {
				t.Fatalf("%s: not an error envelope: %s (%v)", label, data, err)
			}
			if want := "bad request: http: request body too large"; e.Error.Code != api.CodeBadRequest || e.Error.Message != want {
				t.Fatalf("%s: envelope %+v, want code %q message %q", label, *e.Error, api.CodeBadRequest, want)
			}
			if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
				t.Fatalf("%s: content type %q", label, resp.Header.Get("Content-Type"))
			}
		}
	}
}
