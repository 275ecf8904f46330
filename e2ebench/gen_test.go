package main

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
)

// sequence returns the first n jobs of a workload for a seed.
func sequence(t *testing.T, workload string, seed int64, n int) []job {
	t.Helper()
	in, err := inputs(runConfig{workload: workload, seed: seed, seconds: 10})
	if err != nil {
		t.Fatal(err)
	}
	out := append([]job(nil), in.prime...)
	for i := 0; i < n; i++ {
		out = append(out, in.jobAt(i))
	}
	return out
}

func digestOf(t *testing.T, j job) string {
	t.Helper()
	sp, err := jobSpec(j)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sp.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range []string{"explore", "ingest", "hits"} {
		a, b := sequence(t, w, 7, 60), sequence(t, w, 7, 60)
		other := sequence(t, w, 8, 60)
		same := true
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: job %d differs between two generations with one seed", w, i)
			}
			if digestOf(t, a[i]) != digestOf(t, b[i]) {
				t.Fatalf("%s: job %d digest differs between two generations with one seed", w, i)
			}
			same = same && bytes.Equal(a[i].body, other[i].body)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generate the same bodies", w)
		}
	}
}

// The ladder replays a prefix of the timed sequence, so a prefix must not
// depend on how many jobs a run generates.
func TestIngestPrefixIndependentOfLength(t *testing.T) {
	short, long := ingestJobs(3, 20), ingestJobs(3, 200)
	for i := range short {
		if !bytes.Equal(short[i].body, long[i].body) {
			t.Fatalf("ingest job %d depends on the number of jobs generated", i)
		}
	}
}

func TestIngestDigestsNeverRepeat(t *testing.T) {
	seen := map[string]int{digestOf(t, ingestPrime(5)): -1}
	for i, j := range ingestJobs(5, 1200) {
		d := digestOf(t, j)
		if prev, ok := seen[d]; ok {
			t.Fatalf("ingest jobs %d and %d share digest %s (-1 is the priming job)", prev, i, d)
		}
		seen[d] = i
	}
}

func TestHitsMix(t *testing.T) {
	keys, err := hitsKeySet(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != hitsKeys {
		t.Fatalf("%d keys, want %d", len(keys), hitsKeys)
	}
	distinct := map[string]bool{}
	for _, k := range keys {
		distinct[reqKey(k)] = true
	}
	if len(distinct) != hitsKeys {
		t.Fatalf("%d distinct keys among %d", len(distinct), hitsKeys)
	}
	fresh := map[string]bool{}
	jobs := hitsJobs(9, 1000, keys)
	for _, j := range jobs {
		k := reqKey(j)
		if distinct[k] {
			continue // a repeat of a primed key
		}
		if fresh[k] {
			t.Fatal("a fresh job repeats an earlier request")
		}
		fresh[k] = true
	}
	if len(fresh) != len(jobs)/hitsFreshEvery {
		t.Fatalf("%d fresh jobs among %d, want one in %d", len(fresh), len(jobs), hitsFreshEvery)
	}
}

// Every generated system must parse, digest, build and plan on the cached
// tier; the answer check enforces the same on every run.
func TestGeneratedSpecsPlanCached(t *testing.T) {
	eng := core.NewEngine(npsd, 1)
	eng.SetPlanCacheCap(4)
	checked := map[string]bool{}
	for _, w := range []string{"explore", "ingest", "hits"} {
		for _, j := range sequence(t, w, 11, 40) {
			d := digestOf(t, j)
			if checked[d] {
				continue
			}
			checked[d] = true
			sp, _ := jobSpec(j)
			g, err := sp.Build()
			if err != nil {
				t.Fatalf("%s: build: %v", w, err)
			}
			if _, err := eng.EnsurePlan(g); err != nil {
				t.Fatalf("%s: plan: %v", w, err)
			}
			if mode, _ := eng.EvalMode(g); mode != "cached" {
				t.Errorf("%s: system %s plans in %q mode", w, d, mode)
			}
		}
	}
}

func TestExploreSystemsHave32Sources(t *testing.T) {
	for _, s := range exploreSpecs(1) {
		sp, err := spec.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(g.NoiseSources()); n != 32 {
			t.Fatalf("explore system has %d noise sources, want 32", n)
		}
	}
}
