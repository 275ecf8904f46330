package spec_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/systems"
)

// designedSpec covers every filter design form the digest resolves to
// coefficients: each FIR band and window, and each IIR kind and band.
const designedSpec = `{
  "version": 1,
  "nodes": [
    {"name": "in", "kind": "input", "noise": {"frac": 12}},
    {"name": "f1", "kind": "filter", "filter": {"fir": {"band": "lowpass", "taps": 15, "f1": 0.2}}, "noise": {"frac": 12}},
    {"name": "f2", "kind": "filter", "filter": {"fir": {"band": "highpass", "taps": 14, "f1": 0.1, "window": "hann"}}},
    {"name": "f3", "kind": "filter", "filter": {"fir": {"band": "bandpass", "taps": 21, "f1": 0.1, "f2": 0.3, "window": "hamming"}}, "noise": {"mode": "truncate", "frac": 10}},
    {"name": "f4", "kind": "filter", "filter": {"fir": {"band": "bandstop", "taps": 21, "f1": 0.15, "f2": 0.25, "window": "blackman"}}},
    {"name": "f5", "kind": "filter", "filter": {"fir": {"band": "lowpass", "taps": 17, "f1": 0.3, "window": "kaiser"}}, "noise": {"mode": "round-convergent", "frac": 14, "frac_in": 20}},
    {"name": "f6", "kind": "filter", "filter": {"iir": {"kind": "butterworth", "band": "lowpass", "order": 4, "f1": 0.2}}},
    {"name": "f7", "kind": "filter", "filter": {"iir": {"kind": "chebyshev1", "band": "highpass", "order": 3, "f1": 0.05, "ripple_db": 1}}, "noise": {"frac": 12}},
    {"name": "f8", "kind": "filter", "filter": {"iir": {"kind": "butterworth", "band": "bandpass", "order": 2, "f1": 0.1, "f2": 0.3}}},
    {"name": "f9", "kind": "filter", "filter": {"b": [0.5, 0.25], "a": [2, -0.5]}, "noise": {"override": {"mean": 0.001, "variance": 1e-7}}},
    {"name": "g", "kind": "gain", "gain": 0.75},
    {"name": "z", "kind": "delay", "delay": 2},
    {"name": "dn", "kind": "down", "factor": 2},
    {"name": "up", "kind": "up", "factor": 2},
    {"name": "sum", "kind": "adder"},
    {"name": "out", "kind": "output"}
  ],
  "edges": [
    ["in", "f1"], ["f1", "f2"], ["f2", "f3"], ["f3", "f4"], ["f4", "f5"],
    ["f5", "f6"], ["f6", "f7"], ["f7", "f8"], ["f8", "f9"], ["f9", "g"],
    ["g", "sum"], ["in", "z"], ["z", "dn"], ["dn", "up"], ["up", "sum"],
    ["sum", "out"]
  ]
}`

// goldenDigests are the content digests of every registry system's
// exported spec at three export widths, of every example spec, and of
// designedSpec. A digest is the address of every stored plan and result
// and the router's shard key, so one that moves orphans the store and
// reshuffles the shards: a change to any value here is a format change
// and needs a spec.Version bump, not a new golden.
var goldenDigests = map[string]string{
	"designed":                         "sha256:36aa86c4c1c1a33a2e5cc8015637d977d6e29f92e508bee3b7a2496313c10f5a",
	"example:comb-notch.json":          "sha256:7f2abb50bb7a8d62a6aad5ebb68140da8207f5f29f41c272a52efa6f2e888c78",
	"example:two-stage-decimator.json": "sha256:1125f85d8920a9945a00a2e26afbd45cd747a2ba3761415e09c38f209f726f90",
	"registry:fir-lp31(tab1)@8":        "sha256:e9c895e9adfae41f822c2c2ce1766f7df345255c3c6da22f9ffb4d1e1596e354",
	"registry:fir-lp31(tab1)@12":       "sha256:e9c895e9adfae41f822c2c2ce1766f7df345255c3c6da22f9ffb4d1e1596e354",
	"registry:fir-lp31(tab1)@16":       "sha256:e9c895e9adfae41f822c2c2ce1766f7df345255c3c6da22f9ffb4d1e1596e354",
	"registry:iir-bw4(tab1)@8":         "sha256:630a812b26b5c8d6f2b31a743a118e893cea45937f24dee7077e3926135c5ac3",
	"registry:iir-bw4(tab1)@12":        "sha256:630a812b26b5c8d6f2b31a743a118e893cea45937f24dee7077e3926135c5ac3",
	"registry:iir-bw4(tab1)@16":        "sha256:630a812b26b5c8d6f2b31a743a118e893cea45937f24dee7077e3926135c5ac3",
	"registry:freq-filter(fig2)@8":     "sha256:7404e86ea5de5377fb8536780231ebd9e64f3251d319f99d54cd81f3df0eec3c",
	"registry:freq-filter(fig2)@12":    "sha256:dbba6894d7fe7ca1fe8b0d1ad005b529a11a5bdfdd43b0492b906615cf87c15a",
	"registry:freq-filter(fig2)@16":    "sha256:b5aef43c34a2f9dc17ed2331ce19d14d838c906dec7b6b2d73b2b22722286a19",
	"registry:dwt97(fig3)@8":           "sha256:7e32c276e9ccd66047e5ef6b7c0db4a1c3314330821f9e85aa8fc599ec676f64",
	"registry:dwt97(fig3)@12":          "sha256:7e32c276e9ccd66047e5ef6b7c0db4a1c3314330821f9e85aa8fc599ec676f64",
	"registry:dwt97(fig3)@16":          "sha256:7e32c276e9ccd66047e5ef6b7c0db4a1c3314330821f9e85aa8fc599ec676f64",
	"registry:decimator(M=4)@8":        "sha256:7fe876bc492984810412d7ce5e7d944c7e933055bf8670709fcfe6cd8354cf2a",
	"registry:decimator(M=4)@12":       "sha256:7fe876bc492984810412d7ce5e7d944c7e933055bf8670709fcfe6cd8354cf2a",
	"registry:decimator(M=4)@16":       "sha256:7fe876bc492984810412d7ce5e7d944c7e933055bf8670709fcfe6cd8354cf2a",
	"registry:interpolator(L=4)@8":     "sha256:360d31d71f0f081ade68eecd02d69d9f3071c711b3159f587463e3fe29981644",
	"registry:interpolator(L=4)@12":    "sha256:360d31d71f0f081ade68eecd02d69d9f3071c711b3159f587463e3fe29981644",
	"registry:interpolator(L=4)@16":    "sha256:360d31d71f0f081ade68eecd02d69d9f3071c711b3159f587463e3fe29981644",
}

// TestDigestGolden pins the digest of every registry system, example spec
// and filter design form.
func TestDigestGolden(t *testing.T) {
	got := map[string]string{}
	digest := func(key string, sp *spec.Spec) {
		d, err := sp.Digest()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = d
	}
	sp, err := spec.Parse([]byte(designedSpec))
	if err != nil {
		t.Fatal(err)
	}
	digest("designed", sp)
	paths, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("example specs missing: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		digest("example:"+filepath.Base(path), sp)
	}
	registry, err := systems.Registry()
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range registry {
		for _, d := range []int{8, 12, 16} {
			sp, err := systems.SpecFor(sys, d)
			if err != nil {
				t.Fatal(err)
			}
			digest(fmt.Sprintf("registry:%s@%d", sys.Name(), d), sp)
		}
	}

	var diff []string
	for key, d := range got {
		if goldenDigests[key] != d {
			diff = append(diff, fmt.Sprintf("%q: %q,", key, d))
		}
	}
	for key := range goldenDigests {
		if _, ok := got[key]; !ok {
			diff = append(diff, fmt.Sprintf("%q: no longer digested", key))
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		t.Fatalf("%d digests moved:\n%s", len(diff), strings.Join(diff, "\n"))
	}
}
