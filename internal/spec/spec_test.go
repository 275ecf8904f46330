package spec

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sfg"
)

// examplesDir points at the example spec files shipped with the repo; they
// double as parser fixtures and fuzz seeds.
const examplesDir = "../../examples/specs"

func readExample(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(examplesDir, name))
	if err != nil {
		t.Fatalf("read example: %v", err)
	}
	return data
}

func exampleFiles(t testing.TB) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(examplesDir, "*.json"))
	if err != nil || len(names) < 2 {
		t.Fatalf("example specs missing: %v (%v)", names, err)
	}
	return names
}

func TestParseExamples(t *testing.T) {
	for _, path := range exampleFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		g, err := sp.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", path, err)
		}
		if len(g.NoiseSources()) == 0 {
			t.Fatalf("%s: no noise sources", path)
		}
		if _, err := core.NewEngine(64, 1).Evaluate(g); err != nil {
			t.Fatalf("%s: evaluate: %v", path, err)
		}
		if sp.Options == nil {
			t.Fatalf("%s: example should carry options", path)
		}
		if err := sp.Options.WithDefaults().Validate(); err != nil {
			t.Fatalf("%s: options: %v", path, err)
		}
	}
}

func TestParseErrorsArePositional(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"syntax", "{\n  \"nodes\": [,]\n}\n", "line 2"},
		{"type", "{\n  \"version\": \"x\"\n}\n", "line 2"},
		{"unknown kind", `{"nodes":[{"name":"a","kind":"wibble"}],"edges":[]}`, `nodes[0] ("a"): unknown kind "wibble"`},
		{"missing name", `{"nodes":[{"kind":"input"}],"edges":[]}`, "nodes[0]: missing name"},
		{"duplicate", `{"nodes":[{"name":"a","kind":"input"},{"name":"a","kind":"output"}],"edges":[]}`, `nodes[1] ("a"): duplicate of nodes[0]`},
		{"wrong field", `{"nodes":[{"name":"a","kind":"input","gain":2}],"edges":[]}`, `field "gain" does not belong to kind "input"`},
		{"missing field", `{"nodes":[{"name":"a","kind":"gain"}],"edges":[]}`, `kind "gain" requires field "gain"`},
		{"bad edge", `{"nodes":[{"name":"a","kind":"input"},{"name":"o","kind":"output"}],"edges":[["a","x"]]}`, `edges[0]: unknown node "x"`},
		{"self loop", `{"nodes":[{"name":"a","kind":"input"},{"name":"o","kind":"output"}],"edges":[["a","a"]]}`, "edges[0]: self loop"},
		{"bad frac", `{"nodes":[{"name":"a","kind":"input","noise":{"frac":99}},{"name":"o","kind":"output"}],"edges":[["a","o"]]}`, "noise: frac 99 outside"},
		{"bad mode", `{"nodes":[{"name":"a","kind":"input","noise":{"frac":8,"mode":"up"}},{"name":"o","kind":"output"}],"edges":[["a","o"]]}`, `unknown mode "up"`},
		{"noise on output", `{"nodes":[{"name":"a","kind":"input"},{"name":"o","kind":"output","noise":{"frac":8}}],"edges":[["a","o"]]}`, "noise source on the output node"},
		{"duplicate source name", `{"nodes":[{"name":"a","kind":"input","noise":{"name":"q","frac":8}},{"name":"g","kind":"gain","gain":1,"noise":{"name":"q","frac":8}},{"name":"o","kind":"output"}],"edges":[["a","g"],["g","o"]]}`, `source name "q" already used`},
		{"defaulted source name collides", `{"nodes":[{"name":"a","kind":"input","noise":{"name":"g","frac":8}},{"name":"g","kind":"gain","gain":1,"noise":{"frac":8}},{"name":"o","kind":"output"}],"edges":[["a","g"],["g","o"]]}`, `source name "g" already used`},
		{"filter forms", `{"nodes":[{"name":"f","kind":"filter","filter":{"b":[1],"fir":{"band":"lowpass","taps":3,"f1":0.1}}}],"edges":[]}`, "exactly one of"},
		{"bad design", `{"nodes":[{"name":"f","kind":"filter","filter":{"fir":{"band":"sideways","taps":3,"f1":0.1}}}],"edges":[]}`, `unknown band "sideways"`},
		{"unknown top field", `{"nodez":[]}`, "nodez"},
		{"no output", `{"nodes":[{"name":"a","kind":"input"}],"edges":[]}`, "output"},
		{"cycle", `{"nodes":[{"name":"a","kind":"input"},{"name":"g","kind":"gain","gain":1},{"name":"s","kind":"adder"},{"name":"d","kind":"delay","delay":1},{"name":"o","kind":"output"}],"edges":[["a","s"],["g","s"],["s","d"],["d","g"],["s","o"]]}`, "cycle"},
		{"bad options", `{"nodes":[{"name":"a","kind":"input","noise":{"frac":8}},{"name":"o","kind":"output"}],"edges":[["a","o"]],"options":{"budget":1,"budget_width":8}}`, "exactly one of budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestMarshalRoundTripFixedPoint(t *testing.T) {
	for _, path := range exampleFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		m1, err := sp.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		sp2, err := Parse(m1)
		if err != nil {
			t.Fatalf("%s: reparse: %v", path, err)
		}
		m2, err := sp2.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if string(m1) != string(m2) {
			t.Fatalf("%s: Marshal is not a Parse fixed point:\n%s\nvs\n%s", path, m1, m2)
		}
	}
}

// shuffle returns a deep-ish copy of sp with node and edge order permuted.
func shuffle(sp *Spec, seed int64) *Spec {
	rng := rand.New(rand.NewSource(seed))
	cp := *sp
	cp.Nodes = append([]NodeSpec(nil), sp.Nodes...)
	cp.Edges = append([][2]string(nil), sp.Edges...)
	rng.Shuffle(len(cp.Nodes), func(i, j int) { cp.Nodes[i], cp.Nodes[j] = cp.Nodes[j], cp.Nodes[i] })
	rng.Shuffle(len(cp.Edges), func(i, j int) { cp.Edges[i], cp.Edges[j] = cp.Edges[j], cp.Edges[i] })
	return &cp
}

func TestDigestOrderInvariant(t *testing.T) {
	sp, err := Parse(readExample(t, "comb-notch.json"))
	if err != nil {
		t.Fatal(err)
	}
	d0, err := sp.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(d0, "sha256:") || len(d0) != len("sha256:")+64 {
		t.Fatalf("digest shape: %q", d0)
	}
	for seed := int64(1); seed <= 5; seed++ {
		d, err := shuffle(sp, seed).Digest()
		if err != nil {
			t.Fatal(err)
		}
		if d != d0 {
			t.Fatalf("digest changed under reordering (seed %d): %s vs %s", seed, d, d0)
		}
	}
}

func TestDigestSemantics(t *testing.T) {
	sp, err := Parse(readExample(t, "comb-notch.json"))
	if err != nil {
		t.Fatal(err)
	}
	d0, err := sp.Digest()
	if err != nil {
		t.Fatal(err)
	}

	// Cosmetic changes do not move the digest.
	cos := shuffle(sp, 1)
	cos.Name = "renamed"
	cos.Options = &Options{Strategy: "anneal", Budget: 1e-6, MinFrac: 2, MaxFrac: 20}
	if d, _ := cos.Digest(); d != d0 {
		t.Fatalf("digest moved on cosmetic change: %s vs %s", d, d0)
	}

	// Frac is a decision variable: changing it keeps the digest.
	fr := shuffle(sp, 2)
	fr.Nodes = append([]NodeSpec(nil), fr.Nodes...)
	for i := range fr.Nodes {
		if fr.Nodes[i].Noise != nil {
			n := *fr.Nodes[i].Noise
			n.Frac = 7
			fr.Nodes[i].Noise = &n
		}
	}
	if d, _ := fr.Digest(); d != d0 {
		t.Fatalf("digest moved on frac change: %s vs %s", d, d0)
	}

	// Structural changes move it.
	st := shuffle(sp, 3)
	st.Nodes = append([]NodeSpec(nil), st.Nodes...)
	for i := range st.Nodes {
		if st.Nodes[i].Kind == "delay" {
			v := *st.Nodes[i].Delay + 1
			st.Nodes[i].Delay = &v
		}
	}
	if d, _ := st.Digest(); d == d0 {
		t.Fatal("digest did not move on structural change")
	}

	// The noise model is structural: a mode change moves it.
	md := shuffle(sp, 4)
	md.Nodes = append([]NodeSpec(nil), md.Nodes...)
	for i := range md.Nodes {
		if md.Nodes[i].Noise != nil {
			n := *md.Nodes[i].Noise
			n.Mode = "truncate"
			md.Nodes[i].Noise = &n
		}
	}
	if d, _ := md.Digest(); d == d0 {
		t.Fatal("digest did not move on noise-mode change")
	}
}

// TestDesignResolvesToCoefficientDigest pins that a designed filter and its
// resolved coefficient form are the same content.
func TestDesignResolvesToCoefficientDigest(t *testing.T) {
	sp, err := Parse(readExample(t, "two-stage-decimator.json"))
	if err != nil {
		t.Fatal(err)
	}
	d0, err := sp.Digest()
	if err != nil {
		t.Fatal(err)
	}
	g, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Export the built graph: filters come back as explicit coefficients.
	exp, err := FromGraph(g, sp.Name)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := exp.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d0 != d1 {
		t.Fatalf("design form and coefficient form hash differently: %s vs %s", d0, d1)
	}
}

func TestFromGraphRoundTrip(t *testing.T) {
	sp, err := Parse(readExample(t, "comb-notch.json"))
	if err != nil {
		t.Fatal(err)
	}
	g1, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := FromGraph(g1, "rt")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := exp.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(128, 1)
	r1, err := eng.Evaluate(g1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Evaluate(g2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Power != r2.Power || r1.Mean != r2.Mean || r1.Variance != r2.Variance {
		t.Fatalf("round-tripped graph evaluates differently: %+v vs %+v", r1, r2)
	}
}

func TestFromGraphRejectsUnnamedAndCustom(t *testing.T) {
	g := sfg.New()
	in := g.Input("")
	out := g.Output("out")
	g.Connect(in, out)
	if _, err := FromGraph(g, "x"); err == nil || !strings.Contains(err.Error(), "no name") {
		t.Fatalf("want unnamed-node error, got %v", err)
	}

	g2 := sfg.New()
	in2 := g2.Input("in")
	cu := g2.Custom("cu", func(n int) []complex128 { return make([]complex128, n) })
	out2 := g2.Output("out")
	g2.Chain(in2, cu, out2)
	if _, err := FromGraph(g2, "x"); err == nil || !strings.Contains(err.Error(), "not expressible") {
		t.Fatalf("want custom-node error, got %v", err)
	}
}

func TestOptionsFingerprint(t *testing.T) {
	a := Options{Strategy: "descent", BudgetWidth: 10, MinFrac: 4, MaxFrac: 16}
	b := Options{BudgetWidth: 10} // defaults fill in the rest
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("defaulted options should fingerprint equally")
	}
	c := Options{BudgetWidth: 10, Seed: 7}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different options should fingerprint differently")
	}
}
