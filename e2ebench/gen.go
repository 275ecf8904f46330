package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/spec"
	"repro/internal/systems"
	"repro/internal/wlopt"
)

// Frozen workload parameters. Every later performance claim is read
// against these values, so they change only together with BENCHMARK.json.
const (
	// npsd is the paper's default N_PSD; every daemon runs -npsd 1024.
	npsd = 1024

	exploreSystems = 4
	exploreClients = 2
	// ingestRate leaves a durable daemon headroom when the host is slow:
	// on a 2-vCPU host whose speed halved for minutes at a time, an ingest
	// job took 12-15 ms of tier CPU, and at 80 jobs/s the backlog grew
	// until the median latency reached seconds.
	ingestRate = 40.0
	hitsRate   = 500.0
	hitsKeys   = 64
	// hitsFreshEvery makes every tenth hits request a never-seen job.
	hitsFreshEvery = 10
)

// job is one generated request: the exact bytes POSTed to /v1/jobs and the
// parts the answer check and the traced ladder replay.
type job struct {
	body []byte
	// specJSON is the inline spec document; nil when system names a
	// registry entry.
	specJSON []byte
	system   string
	opts     spec.Options
}

// newRand derives an independent, reproducible stream from the run seed.
func newRand(seed int64, stream, i uint64) *rand.Rand {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ i*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb51eb5e66b
	x ^= x >> 29
	return rand.New(rand.NewSource(int64(x >> 1)))
}

// Stream identifiers keep the workloads' random streams apart.
const (
	streamExplore uint64 = iota + 1
	streamExploreJob
	streamIngest
	streamHits
	streamSample
	streamIngestPrime
)

// stageFilter draws one filter stage.
type stageFilter func(r *rand.Rand) spec.FilterSpec

// exploreFilter is a 31-tap FIR or an order-2 IIR: cheap to plan, so the
// explore systems are sized by their source count, not their filters.
func exploreFilter(r *rand.Rand) spec.FilterSpec {
	f1 := 0.1 + 0.3*r.Float64()
	if r.Intn(2) == 0 {
		return spec.FilterSpec{FIR: &spec.FIRDesign{Band: "lowpass", Taps: 31, F1: f1, Window: "hamming"}}
	}
	return spec.FilterSpec{IIR: &spec.IIRDesign{Kind: "butterworth", Band: "lowpass", Order: 2, F1: f1}}
}

// ingestFilter is a 255-tap FIR or an order 2-4 IIR: expensive to plan.
func ingestFilter(r *rand.Rand) spec.FilterSpec {
	windows := []string{"hamming", "hann", "blackman"}
	f1 := 0.1 + 0.3*r.Float64()
	if r.Intn(2) == 0 {
		return spec.FilterSpec{FIR: &spec.FIRDesign{Band: "lowpass", Taps: 255, F1: f1, Window: windows[r.Intn(len(windows))]}}
	}
	if r.Intn(2) == 0 {
		return spec.FilterSpec{IIR: &spec.IIRDesign{Kind: "butterworth", Band: "lowpass", Order: 2 + r.Intn(3), F1: f1}}
	}
	return spec.FilterSpec{IIR: &spec.IIRDesign{Kind: "chebyshev1", Band: "lowpass", Order: 2 + r.Intn(3), F1: f1, RippleDB: 1}}
}

// branchSpec builds in → branches → sum → out, each branch a chain of
// (filter, gain) stages with a noise source on every stage node. A
// decimated branch is wrapped in a down-by-2 / up-by-2 pair. gain0, when
// positive, fixes the first gain, which makes digests distinct by
// construction.
func branchSpec(name string, r *rand.Rand, stages []int, decimated []bool, filt stageFilter, gain0 float64) *spec.Spec {
	sp := &spec.Spec{Version: spec.Version, Name: name}
	node := func(n spec.NodeSpec) { sp.Nodes = append(sp.Nodes, n) }
	edge := func(a, b string) { sp.Edges = append(sp.Edges, [2]string{a, b}) }
	node(spec.NodeSpec{Name: "in", Kind: "input"})
	two := 2
	for b, n := range stages {
		prev := "in"
		if decimated[b] {
			d := fmt.Sprintf("b%d.down", b)
			node(spec.NodeSpec{Name: d, Kind: "down", Factor: &two})
			edge(prev, d)
			prev = d
		}
		for s := 0; s < n; s++ {
			f := fmt.Sprintf("b%d.s%d.f", b, s)
			fs := filt(r)
			node(spec.NodeSpec{Name: f, Kind: "filter", Filter: &fs, Noise: &spec.NoiseSpec{Frac: 16}})
			edge(prev, f)
			g := fmt.Sprintf("b%d.s%d.g", b, s)
			gain := 0.3 + 0.6*r.Float64()
			if b == 0 && s == 0 && gain0 > 0 {
				gain = gain0
			}
			node(spec.NodeSpec{Name: g, Kind: "gain", Gain: &gain, Noise: &spec.NoiseSpec{Frac: 16}})
			edge(f, g)
			prev = g
		}
		if decimated[b] {
			u := fmt.Sprintf("b%d.up", b)
			node(spec.NodeSpec{Name: u, Kind: "up", Factor: &two})
			edge(prev, u)
			prev = u
		}
		edge(prev, "sum")
	}
	node(spec.NodeSpec{Name: "sum", Kind: "adder"})
	node(spec.NodeSpec{Name: "out", Kind: "output"})
	edge("sum", "out")
	return sp
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only generated values reach here
	}
	return b
}

// inlineJob wraps an inline spec document and options into a job.
func inlineJob(specJSON []byte, o spec.Options) job {
	body := append([]byte(`{"spec":`), specJSON...)
	body = append(body, `,"options":`...)
	body = append(body, mustJSON(o)...)
	body = append(body, '}')
	return job{body: body, specJSON: specJSON, opts: o}
}

// registryJob submits a registry system by name.
func registryJob(name string, o spec.Options) job {
	body := mustJSON(map[string]any{"system": name, "options": o})
	return job{body: body, system: name, opts: o}
}

// exploreSpecs generates the explore systems: 4 branches of 4 filter+gain
// stages, 32 noise sources each.
func exploreSpecs(seed int64) [][]byte {
	out := make([][]byte, exploreSystems)
	for i := range out {
		r := newRand(seed, streamExplore, uint64(i))
		sp := branchSpec(fmt.Sprintf("explore-%d", i), r, []int{4, 4, 4, 4}, make([]bool, 4), exploreFilter, 0)
		out[i] = mustJSON(sp)
	}
	return out
}

// explorePrime is the request that warms system i's plan during set-up;
// its budget width lies outside the timed range, so no timed job repeats it.
func explorePrime(specs [][]byte, i int) job {
	return inlineJob(specs[i], spec.Options{Strategy: "descent", BudgetWidth: 13})
}

// exploreJob is the i-th timed explore job: one of the systems with options
// never seen before (the per-job seed), cycling through every strategy.
func exploreJob(specs [][]byte, seed int64, i int) job {
	r := newRand(seed, streamExploreJob, uint64(i))
	strategies := wlopt.Strategies()
	o := spec.Options{
		Strategy:    strategies[i%len(strategies)],
		BudgetWidth: 6 + r.Intn(7),
		Seed:        int64(i) + 1,
	}
	return inlineJob(specs[r.Intn(len(specs))], o)
}

// ingestPrime is the one request set-up sends to a fresh durable tier, so
// the store's lazy initialization is not charged to the first timed job.
// Its first gain lies outside the timed jobs' range, so it shares no
// digest with them.
func ingestPrime(seed int64) job {
	r := newRand(seed, streamIngestPrime, 0)
	sp := branchSpec("ingest-prime", r, []int{3, 3}, []bool{false, false}, ingestFilter, 0.25)
	return inlineJob(mustJSON(sp), spec.Options{Strategy: "descent", BudgetWidth: 13})
}

// ingestJobs generates n never-seen systems of 12-24 sources, every third
// branch decimated, each searched by descent under a tight budget.
func ingestJobs(seed int64, n int) []job {
	out := make([]job, n)
	branch := 0
	for i := range out {
		r := newRand(seed, streamIngest, uint64(i))
		stages := make([]int, 2+r.Intn(2))
		decimated := make([]bool, len(stages))
		for b := range stages {
			stages[b] = 3 + r.Intn(2)
			decimated[b] = branch%3 == 2
			branch++
		}
		// A golden-ratio sequence gives every job index its own first gain,
		// independent of n, so a prefix of the jobs is the same at any n.
		gain0 := 0.3 + 0.6*math.Mod(float64(i+1)*0.6180339887498949, 1)
		sp := branchSpec(fmt.Sprintf("ingest-%d", i), r, stages, decimated, ingestFilter, gain0)
		o := spec.Options{Strategy: "descent", BudgetWidth: 13 + r.Intn(3)}
		out[i] = inlineJob(mustJSON(sp), o)
	}
	return out
}

// hitsSmallSystems are the registry systems cheap enough to search at the
// hits rate.
var hitsSmallSystems = []string{"fir-lp31(tab1)", "iir-bw4(tab1)", "decimator(M=4)", "interpolator(L=4)"}

// hitsKeySet generates the 64 (system, options) keys primed in set-up:
// registry systems by name and small inline specs, half each.
func hitsKeySet(seed int64) ([]job, error) {
	names, err := systems.RegistryNames()
	if err != nil {
		return nil, err
	}
	strategies := wlopt.Strategies()
	r := newRand(seed, streamHits, 0)
	keys := make([]job, 0, hitsKeys)
	for k := 0; k < hitsKeys/2; k++ {
		o := spec.Options{Strategy: strategies[k%len(strategies)], BudgetWidth: 6 + r.Intn(7), Seed: int64(k) + 1}
		keys = append(keys, registryJob(names[k%len(names)], o))
	}
	var small [][]byte
	for s := 0; s < 8; s++ {
		sp := branchSpec(fmt.Sprintf("small-%d", s), r, []int{1, 1 + s%2}, []bool{false, false}, exploreFilter, 0)
		small = append(small, mustJSON(sp))
	}
	for k := 0; k < hitsKeys/2; k++ {
		o := spec.Options{Strategy: strategies[k%len(strategies)], BudgetWidth: 6 + r.Intn(7), Seed: int64(k) + 1}
		keys = append(keys, inlineJob(small[k%len(small)], o))
	}
	return keys, nil
}

// hitsJobs generates n hits requests: nine in ten repeat a primed key, the
// tenth is a fresh small registry job (its seed makes the key new).
func hitsJobs(seed int64, n int, keys []job) []job {
	out := make([]job, n)
	strategies := []string{"descent", "ascent", "hybrid"}
	for i := range out {
		r := newRand(seed, streamHits, uint64(i)+1)
		if i%hitsFreshEvery != hitsFreshEvery-1 {
			out[i] = keys[r.Intn(len(keys))]
			continue
		}
		o := spec.Options{Strategy: strategies[r.Intn(len(strategies))], BudgetWidth: 6 + r.Intn(7), Seed: 1000 + int64(i)}
		out[i] = registryJob(hitsSmallSystems[r.Intn(len(hitsSmallSystems))], o)
	}
	return out
}
