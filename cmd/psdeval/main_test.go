package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// jsonUnmarshal decodes a test fixture the way main does.
func jsonUnmarshal(body string, spec *systemSpec) error {
	return json.Unmarshal([]byte(body), spec)
}

const sampleSpec = `{
  "frac": 12,
  "blocks": [
    {"name": "in",  "type": "input", "quantize": true},
    {"name": "lp",  "type": "fir", "band": "lowpass", "taps": 21, "f1": 0.2, "from": "in", "quantize": true},
    {"name": "g",   "type": "gain", "gain": 0.5, "from": "lp"},
    {"name": "out", "type": "output", "from": "g"}
  ]
}`

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunHappyPath(t *testing.T) {
	p := writeSpec(t, sampleSpec)
	for _, mode := range []string{"cached", "full"} {
		if err := run(p, "", 0, mode, 2, 128, "", true, 20000, 1); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
}

func TestRunRegistrySystem(t *testing.T) {
	if err := run("", "dwt97(fig3)", 10, "cached", 2, 128, "", false, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := run("", "no-such-system", 10, "cached", 1, 128, "", false, 0, 1); err == nil {
		t.Fatal("unknown registry system should fail")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run("/nonexistent/spec.json", "", 0, "cached", 1, 128, "", false, 0, 0); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestRunBadJSON(t *testing.T) {
	p := writeSpec(t, "{not json")
	if err := run(p, "", 0, "cached", 1, 128, "", false, 0, 0); err == nil {
		t.Fatal("bad JSON should fail")
	}
}

func TestBuildGraphErrors(t *testing.T) {
	cases := map[string]string{
		"unknown type": `{"blocks":[{"name":"x","type":"warp"}]}`,
		"unnamed":      `{"blocks":[{"type":"input"}]}`,
		"duplicate":    `{"blocks":[{"name":"a","type":"input"},{"name":"a","type":"output"}]}`,
		"unknown from": `{"blocks":[{"name":"in","type":"input"},{"name":"out","type":"output","from":"ghost"}]}`,
		"bad from":     `{"blocks":[{"name":"in","type":"input"},{"name":"out","type":"output","from":42}]}`,
		"no output":    `{"blocks":[{"name":"in","type":"input"}]}`,
	}
	for label, body := range cases {
		var spec systemSpec
		if err := jsonUnmarshal(body, &spec); err != nil {
			t.Fatalf("%s: test fixture invalid: %v", label, err)
		}
		if _, err := buildGraph(&spec); err == nil {
			t.Errorf("%s: expected error", label)
		}
	}
}

func TestBuildGraphMultirateAndAdder(t *testing.T) {
	body := `{
	  "frac": 10,
	  "blocks": [
	    {"name": "in",  "type": "input", "quantize": true},
	    {"name": "d2",  "type": "down", "factor": 2, "from": "in"},
	    {"name": "u2",  "type": "up", "factor": 2, "from": "d2"},
	    {"name": "dly", "type": "delay", "delay": 1, "from": "in"},
	    {"name": "sum", "type": "adder", "from": ["u2", "dly"]},
	    {"name": "out", "type": "output", "from": "sum"}
	  ]
	}`
	var spec systemSpec
	if err := jsonUnmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	g, err := buildGraph(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsMultirate() {
		t.Fatal("graph should be multirate")
	}
}

func TestBuildGraphExplicitCoefficients(t *testing.T) {
	body := `{
	  "blocks": [
	    {"name": "in",  "type": "input", "quantize": true},
	    {"name": "f",   "type": "iir", "b": [1], "a": [1, -0.5], "from": "in"},
	    {"name": "out", "type": "output", "from": "f"}
	  ]
	}`
	var spec systemSpec
	if err := jsonUnmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	if _, err := buildGraph(&spec); err != nil {
		t.Fatal(err)
	}
}

// TestRunWarmStoreRoundTrip: the first -store run writes the plan through,
// the second restores it from disk and evaluates on the restored plan.
func TestRunWarmStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		if err := run("", "dwt97(fig3)", 10, "cached", 1, 128, dir, false, 0, 1); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Len(store.KindPlan); n != 1 {
		t.Fatalf("%d plan entries after two runs, want 1", n)
	}
}
