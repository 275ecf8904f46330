package main

import (
	"bufio"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/sfg"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wlopt"
)

// The traced run replays the first ladderJobs jobs of the workload's
// sequence, one at a time, through a ladder of rungs that each add one
// layer: lib (the library calls the service makes), service (service.New
// in process), http (api.NewServer on loopback, driven by api.Client) and,
// for hits, router (router.New in front of two such backends). Every call
// into a layer is a span recorded from this file, so a layer's cost is the
// difference between two rungs' median job latency. Only stable public
// entry points are called.
var ladderJobs = map[string]int{"explore": 1000, "ingest": 150, "hits": 1000}

// Span job IDs below zero mark work outside the timed job sequence.
const (
	jobPrime   = -1
	jobRestore = -2
	jobFFT     = -3
)

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (rc *recorder) start(rung, name string, job, parent int) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.spans = append(rc.spans, span{ID: len(rc.spans) + 1, Parent: parent, Job: job, Rung: rung, Name: name, Start: time.Since(rc.epoch).Nanoseconds()})
	return len(rc.spans)
}

// note attaches a remark to a span, such as whether a plan was cold.
func (rc *recorder) note(id int, s string) {
	rc.mu.Lock()
	rc.spans[id-1].Note = s
	rc.mu.Unlock()
}

func (rc *recorder) end(id int) {
	rc.mu.Lock()
	rc.spans[id-1].End = time.Since(rc.epoch).Nanoseconds()
	rc.mu.Unlock()
}

// write stores the spans as JSON lines.
func (rc *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range rc.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// find returns the spans of one rung with the given name, optionally only
// those of timed jobs.
func (rc *recorder) find(rung, name string, timedOnly bool) []span {
	var out []span
	for _, s := range rc.spans {
		if s.Rung == rung && s.Name == name && (!timedOnly || s.Job >= 0) {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the spans' durations in unit.
func durations(spans []span, unit time.Duration) dist {
	x := make([]float64, len(spans))
	for i, s := range spans {
		x[i] = float64(s.dur()) / float64(unit)
	}
	return newDist(x)
}

// tracedEngine is the search's evaluator in the lib rung. Embedding the
// engine keeps every evaluator interface the optimizer looks for; the
// calls a search makes into the engine are timed and counted.
type tracedEngine struct {
	*core.Engine
	rec        *recorder
	job, span  int
	moves      int
	tier2Calls int
}

func (e *tracedEngine) PowerMoves(g *sfg.Graph, base core.Assignment, moves []core.Move) ([]float64, error) {
	id := e.rec.start("lib", "Engine.PowerMoves", e.job, e.span)
	p, err := e.Engine.PowerMoves(g, base, moves)
	e.rec.end(id)
	e.moves += len(moves)
	return p, err
}

func (e *tracedEngine) Evaluate(g *sfg.Graph) (*core.Result, error) {
	id := e.rec.start("lib", "Engine.Evaluate", e.job, e.span)
	r, err := e.Engine.Evaluate(g)
	e.rec.end(id)
	e.tier2Calls++
	return r, err
}

func (e *tracedEngine) EvaluateBatch(g *sfg.Graph, as []core.Assignment) ([]*core.Result, error) {
	id := e.rec.start("lib", "Engine.EvaluateBatch", e.job, e.span)
	r, err := e.Engine.EvaluateBatch(g, as)
	e.rec.end(id)
	e.tier2Calls++
	return r, err
}

// libResult mirrors the service's persisted result entry.
type libResult struct {
	Res    *wlopt.Result
	Budget float64
}

// libAnswer is one answer of the lib rung, with what persisting it needs.
type libAnswer struct {
	digest, fingerprint string
	g                   *sfg.Graph
	res                 libResult
}

type regSpec struct {
	sp     *spec.Spec
	digest string
}

// libRung holds the lib rung's state: the library-level equivalents of the
// service's registry memo, graph cache, result cache and store.
type libRung struct {
	eng      *core.Engine
	st       *store.Store
	regs     map[string]regSpec    // registry systems by name, as the service memoizes them
	specs    map[string]*spec.Spec // by digest
	graphs   map[string]*sfg.Graph // by digest
	answered map[string]bool       // digest + options fingerprint
	plansPut map[string]bool

	plans, full                 int
	searches, moves, tier2Calls int
	evaluations, steps, cost    float64
	// storeKB is how much the store grew while the timed jobs ran.
	storeKB float64
}

type ladder struct {
	rec   *recorder
	cfg   runConfig
	prime []job
	jobs  []job
	lib   *libRung
	// snapKB is the gob-encoded size of each plan snapshot written.
	snapKB []float64
}

// traceLayers runs the ladder, derives the per-layer metrics and writes the
// spans out.
func (r *runResult) traceLayers(ctx context.Context, in workloadInputs) error {
	l := &ladder{rec: &recorder{epoch: time.Now()}, cfg: r.cfg, prime: in.prime}
	for i := 0; i < ladderJobs[r.cfg.workload]; i++ {
		l.jobs = append(l.jobs, in.jobAt(i))
	}
	if err := l.runLib(); err != nil {
		return fmt.Errorf("lib rung: %w", err)
	}
	if err := l.runService(ctx); err != nil {
		return fmt.Errorf("service rung: %w", err)
	}
	if err := l.runHTTP(ctx, "http", false); err != nil {
		return fmt.Errorf("http rung: %w", err)
	}
	if err := l.runHTTP(ctx, "http-traced", true); err != nil {
		return fmt.Errorf("traced http rung: %w", err)
	}
	if r.cfg.workload == "hits" {
		if err := l.runRouter(ctx); err != nil {
			return fmt.Errorf("router rung: %w", err)
		}
	}
	l.timeFFT()
	r.spanFile = filepath.Join(r.cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", r.cfg.workload, r.cfg.seed))
	if err := l.rec.write(r.spanFile); err != nil {
		return err
	}
	r.perLayer = append(r.tierLayers(), l.metrics()...)
	sort.Slice(r.perLayer, func(i, j int) bool { return r.perLayer[i].name < r.perLayer[j].name })
	return nil
}

func (l *ladder) openStore(name string) (*store.Store, error) {
	return store.Open(filepath.Join(l.cfg.runDir, name))
}

func (l *ladder) runLib() error {
	lr := &libRung{
		eng: core.NewEngine(npsd, 1), regs: map[string]regSpec{}, specs: map[string]*spec.Spec{},
		graphs: map[string]*sfg.Graph{}, answered: map[string]bool{}, plansPut: map[string]bool{},
	}
	// The service's graph cache bounds its plans the same way.
	lr.eng.SetPlanCacheCap(16)
	l.lib = lr
	dir := filepath.Join(l.cfg.runDir, "lib-store")
	var err error
	if lr.st, err = store.Open(dir); err != nil {
		return err
	}
	for _, j := range l.prime {
		if err := l.libJob(j, jobPrime); err != nil {
			return err
		}
	}
	kb0 := dirKB(dir)
	for i, j := range l.jobs {
		if err := l.libJob(j, i); err != nil {
			return err
		}
	}
	lr.storeKB = dirKB(dir) - kb0
	return l.restoreTrips()
}

// call times fn as a lib-rung span under parent; fn gets the span's ID.
func (l *ladder) call(jid, parent int, name string, fn func(id int) error) error {
	id := l.rec.start("lib", name, jid, parent)
	err := fn(id)
	l.rec.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// libJob answers one request with direct library calls and writes the
// answer through the lib rung's store, as a durable service does. The
// write-through counts in the job's latency only on ingest, whose service
// and http rungs run with a store too; elsewhere it is a root span of its
// own, so that the rungs' job latencies stay comparable.
func (l *ladder) libJob(j job, jid int) error {
	rc := l.rec
	root := rc.start("lib", "job", jid, 0)
	a, err := l.libSolve(j, jid, root)
	if err != nil || a == nil {
		rc.end(root)
		return err
	}
	if l.cfg.workload != "ingest" {
		rc.end(root)
		root = rc.start("lib", "persist", jid, 0)
	}
	err = l.libPersist(a, jid, root)
	rc.end(root)
	return err
}

// libSolve parses and digests a request and, unless this rung already
// answered the same request, builds, plans, probes the budget and searches.
// It returns nil for a repeated request.
func (l *ladder) libSolve(j job, jid, root int) (*libAnswer, error) {
	lr := l.lib
	var sp *spec.Spec
	var digest string
	if j.specJSON != nil {
		if err := l.call(jid, root, "spec.Parse", func(int) (err error) { sp, err = spec.Parse(j.specJSON); return }); err != nil {
			return nil, err
		}
		if err := l.call(jid, root, "Spec.Digest", func(int) (err error) { digest, err = sp.Digest(); return }); err != nil {
			return nil, err
		}
	} else if reg, ok := lr.regs[j.system]; ok {
		sp, digest = reg.sp, reg.digest
	} else {
		if err := l.call(jid, root, "systems.SpecFor", func(int) (err error) { sp, err = jobSpec(j); return }); err != nil {
			return nil, err
		}
		if err := l.call(jid, root, "Spec.Digest", func(int) (err error) { digest, err = sp.Digest(); return }); err != nil {
			return nil, err
		}
		lr.regs[j.system] = regSpec{sp, digest}
	}
	fp := j.opts.Fingerprint()
	if lr.answered[digest+"\x00"+fp] {
		return nil, nil
	}
	lr.specs[digest] = sp
	g := lr.graphs[digest]
	if g == nil {
		if err := l.call(jid, root, "Spec.Build", func(int) (err error) { g, err = sp.Build(); return }); err != nil {
			return nil, err
		}
		lr.graphs[digest] = g
	}
	var built bool
	if err := l.call(jid, root, "Engine.EnsurePlan", func(id int) (err error) {
		if built, err = lr.eng.EnsurePlan(g); built {
			l.rec.note(id, "cold")
		}
		return
	}); err != nil {
		return nil, err
	}
	if built {
		lr.plans++
		if mode, _ := lr.eng.EvalMode(g); mode != "cached" {
			lr.full++
		}
	}
	o := j.opts.WithDefaults()
	var budget float64
	if err := l.call(jid, root, "Engine.EvaluateAssignment", func(int) (err error) { budget, err = budgetFor(lr.eng, g, o); return }); err != nil {
		return nil, err
	}
	te := &tracedEngine{Engine: lr.eng, rec: l.rec, job: jid}
	steps := 0
	var res *wlopt.Result
	if err := l.call(jid, root, "wlopt.RunStrategy", func(id int) (err error) {
		te.span = id
		res, err = search(g, o, budget, te, func(wlopt.ProgressEvent) { steps++ })
		return
	}); err != nil {
		return nil, err
	}
	if jid >= 0 {
		lr.searches++
		lr.moves += te.moves
		lr.tier2Calls += te.tier2Calls
		lr.evaluations += float64(res.Evaluations)
		lr.steps += float64(steps)
		lr.cost += res.Cost
	}
	lr.answered[digest+"\x00"+fp] = true
	return &libAnswer{digest: digest, fingerprint: fp, g: g, res: libResult{Res: res, Budget: budget}}, nil
}

// countWriter counts the bytes written through it.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// libPersist does what the service's write-through does, the digest's plan
// snapshot once and the result every time, and reads the result back.
func (l *ladder) libPersist(a *libAnswer, jid, parent int) error {
	lr := l.lib
	if !lr.plansPut[a.digest] {
		var snap *core.PlanSnapshot
		if err := l.call(jid, parent, "Engine.SnapshotPlan", func(int) (err error) { snap, err = lr.eng.SnapshotPlan(a.g); return }); err != nil {
			return err
		}
		if err := l.call(jid, parent, "store.Put", func(int) error { return lr.st.Put(store.KindPlan, store.PlanKey(a.digest, npsd), snap) }); err != nil {
			return err
		}
		lr.plansPut[a.digest] = true
		var size countWriter
		if err := gob.NewEncoder(&size).Encode(snap); err != nil {
			return err
		}
		l.snapKB = append(l.snapKB, float64(size)/1024)
	}
	key := store.ResultKey(a.digest, a.fingerprint)
	if err := l.call(jid, parent, "store.Put", func(int) error { return lr.st.Put(store.KindResult, key, &a.res) }); err != nil {
		return err
	}
	return l.call(jid, parent, "store.Get", func(int) error {
		var got libResult
		if !lr.st.Get(store.KindResult, key, &got) {
			return fmt.Errorf("result %s missing", key)
		}
		return nil
	})
}

// restoreTripCount is how many plans the traced run restores from the lib
// rung's store, cycling through its digests.
const restoreTripCount = 32

// restoreTrips takes plans through the restore path: store.Get of the
// snapshot the job loop wrote, then RestorePlan onto a freshly built graph
// in a fresh engine.
func (l *ladder) restoreTrips() error {
	lr, rc := l.lib, l.rec
	digests := make([]string, 0, len(lr.plansPut))
	for d := range lr.plansPut {
		digests = append(digests, d)
	}
	sort.Strings(digests)
	for i := 0; i < restoreTripCount; i++ {
		d := digests[i%len(digests)]
		g, err := lr.specs[d].Build()
		if err != nil {
			return err
		}
		root := rc.start("lib", "plan.restore", jobRestore, 0)
		var snap core.PlanSnapshot
		err = l.call(jobRestore, root, "store.Get", func(int) error {
			if !lr.st.Get(store.KindPlan, store.PlanKey(d, npsd), &snap) {
				return fmt.Errorf("plan %s missing", d)
			}
			return nil
		})
		if err == nil {
			err = l.call(jobRestore, root, "Engine.RestorePlan", func(int) error { return core.NewEngine(npsd, 1).RestorePlan(g, &snap) })
		}
		rc.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) runService(ctx context.Context) error {
	var st *store.Store
	if l.cfg.workload == "ingest" {
		var err error
		if st, err = l.openStore("service-store"); err != nil {
			return err
		}
	}
	mgr := service.New(service.Config{NPSD: npsd, Store: st, NodeID: "d1"})
	defer mgr.Close()
	for _, j := range l.prime {
		if err := l.serviceJob(ctx, mgr, j, jobPrime); err != nil {
			return err
		}
	}
	for i, j := range l.jobs {
		if err := l.serviceJob(ctx, mgr, j, i); err != nil {
			return err
		}
	}
	return nil
}

// serviceJob parses the request the way the lib rung does, then submits it
// to the in-process manager and waits for its answer.
func (l *ladder) serviceJob(ctx context.Context, mgr *service.Manager, j job, jid int) error {
	rc := l.rec
	root := rc.start("service", "job", jid, 0)
	defer rc.end(root)
	req := service.Request{System: j.system, Options: j.opts}
	if j.specJSON != nil {
		id := rc.start("service", "spec.Parse", jid, root)
		sp, err := spec.Parse(j.specJSON)
		rc.end(id)
		if err != nil {
			return err
		}
		req = service.Request{Spec: sp, Options: j.opts}
	}
	id := rc.start("service", "Manager.Submit", jid, root)
	info, err := mgr.Submit(req)
	rc.end(id)
	if err != nil {
		return err
	}
	if !info.State.Terminal() {
		id = rc.start("service", "Manager.Wait", jid, root)
		info, err = mgr.Wait(ctx, info.ID)
		rc.end(id)
		if err != nil {
			return err
		}
	}
	if info.State != service.JobDone {
		return fmt.Errorf("job %s: %s %s", info.ID, info.State, info.Error)
	}
	return nil
}

// serve runs h on a loopback listener until the returned stop is called.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// runHTTP serves an in-process manager through api.NewServer; traced turns
// the program's own tracing on in both the server and the manager.
func (l *ladder) runHTTP(ctx context.Context, rung string, traced bool) error {
	var st *store.Store
	if l.cfg.workload == "ingest" {
		var err error
		if st, err = l.openStore(rung + "-store"); err != nil {
			return err
		}
	}
	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder(trace.RecorderConfig{})
	}
	mgr := service.New(service.Config{NPSD: npsd, Store: st, NodeID: "d1", Tracer: rec})
	defer mgr.Close()
	url, stop, err := serve(api.NewServer(mgr, api.ServerConfig{Tracer: rec}).Handler())
	if err != nil {
		return err
	}
	defer stop()
	return l.clientJobs(ctx, rung, newClient(url))
}

// runRouter puts router.New in front of two in-process backends.
func (l *ladder) runRouter(ctx context.Context) error {
	var urls []string
	for i := 1; i <= 2; i++ {
		mgr := service.New(service.Config{NPSD: npsd, NodeID: fmt.Sprintf("d%d", i)})
		defer mgr.Close()
		url, stop, err := serve(api.NewServer(mgr, api.ServerConfig{}).Handler())
		if err != nil {
			return err
		}
		defer stop()
		urls = append(urls, url)
	}
	rt := router.New(router.Config{Pool: router.PoolConfig{Backends: urls}})
	rt.Start()
	defer rt.Close()
	url, stop, err := serve(rt.Handler())
	if err != nil {
		return err
	}
	defer stop()
	return l.clientJobs(ctx, "router", newClient(url))
}

func (l *ladder) clientJobs(ctx context.Context, rung string, cl *api.Client) error {
	for _, j := range l.prime {
		if err := l.clientJob(ctx, rung, cl, j, jobPrime); err != nil {
			return err
		}
	}
	for i, j := range l.jobs {
		if err := l.clientJob(ctx, rung, cl, j, i); err != nil {
			return err
		}
	}
	return nil
}

// clientJob posts the generated body and waits for the answer over SSE,
// exactly as the tier run's generator does.
func (l *ladder) clientJob(ctx context.Context, rung string, cl *api.Client, j job, jid int) error {
	rc := l.rec
	root := rc.start(rung, "job", jid, 0)
	defer rc.end(root)
	id := rc.start(rung, "Client.SubmitBody", jid, root)
	info, _, err := cl.SubmitBody(ctx, j.body)
	rc.end(id)
	if err != nil {
		return err
	}
	if !info.State.Terminal() {
		id = rc.start(rung, "Client.Wait", jid, root)
		info, err = cl.Wait(ctx, info.ID)
		rc.end(id)
		if err != nil {
			return err
		}
	}
	if info.State != service.JobDone {
		return fmt.Errorf("job %s: %s %s", info.ID, info.State, info.Error)
	}
	return nil
}

// timeFFT times fft.Plan.RealForward at N_PSD on a warm plan.
func (l *ladder) timeFFT() {
	p := fft.NewPlan()
	x := make([]float64, npsd)
	r := newRand(l.cfg.seed, streamSample, 1)
	for i := range x {
		x[i] = 2*r.Float64() - 1
	}
	p.RealForward(x) // computes the plan's twiddles
	for i := 0; i < 1000; i++ {
		id := l.rec.start("lib", "fft.Plan.RealForward", jobFFT, 0)
		p.RealForward(x)
		l.rec.end(id)
	}
}
