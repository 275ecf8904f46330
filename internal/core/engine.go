package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/psd"
	"repro/internal/sfg"
)

// Assignment gives the noise sources of a graph fractional bit widths,
// indexed by the source's sfg.NodeID; entries of nodes without a noise
// source are ignored. It is the unit of work of the batch evaluation API:
// one Assignment describes one hypothetical fixed-point configuration of a
// graph without mutating the graph itself, which is what lets many
// configurations be scored concurrently against shared read-only
// structure.
//
// A nil Assignment stands for the graph's stored widths on every entry
// point. A non-nil one must give every noise source a width, that is, be
// longer than the largest source ID; a shorter one is an error naming the
// first source it leaves out, never a fallback to the stored widths.
type Assignment []int

// AssignmentOf captures g's current noise-source widths.
func AssignmentOf(g *sfg.Graph) Assignment {
	a := make(Assignment, len(g.Nodes()))
	for _, n := range g.Nodes() {
		if n.Noise != nil {
			a[n.ID] = n.Noise.Frac
		}
	}
	return a
}

// UniformAssignment assigns frac to every listed noise source.
func UniformAssignment(sources []sfg.NodeID, frac int) Assignment {
	n := 0
	for _, id := range sources {
		n = max(n, int(id)+1)
	}
	a := make(Assignment, n)
	for _, id := range sources {
		a[id] = frac
	}
	return a
}

// Clone returns an independent copy.
func (a Assignment) Clone() Assignment { return slices.Clone(a) }

// Apply writes the widths into g's noise sources; nodes without a noise
// source are left alone, and a nil a leaves g as it is. A non-nil a must
// give every source a width (see Check).
func (a Assignment) Apply(g *sfg.Graph) {
	if a == nil {
		return
	}
	for _, n := range g.Nodes() {
		if n.Noise != nil {
			n.Noise.Frac = a[n.ID]
		}
	}
}

// Check returns an error naming the first noise source of g that a
// gives no width; a nil a, the stored widths, covers every source.
func (a Assignment) Check(g *sfg.Graph) error {
	if a == nil {
		return nil
	}
	for _, n := range g.Nodes() {
		if n.Noise != nil && int(n.ID) >= len(a) {
			return uncovered(a, n)
		}
	}
	return nil
}

// uncovered is the error for an assignment too short to give source n a
// width.
func uncovered(a Assignment, n *sfg.Node) error {
	return fmt.Errorf("core: assignment of length %d gives noise source %q (node %d) no width", len(a), n.Noise.Name, n.ID)
}

// BatchEvaluator is implemented by evaluators that can score many width
// assignments against one graph, potentially concurrently. Results are
// returned in assignment order and are identical to evaluating each
// assignment sequentially.
type BatchEvaluator interface {
	Evaluator
	EvaluateBatch(g *sfg.Graph, as []Assignment) ([]*Result, error)
}

// Move is a single-source width change against a base assignment — the
// unit of work of every greedy word-length search step.
type Move struct {
	// Source is the noise-source node whose width changes.
	Source sfg.NodeID
	// Frac is the new fractional width.
	Frac int
}

// MovePowerEvaluator is implemented by batch evaluators with a scalar
// move-scoring path: PowerMoves scores each single-source width change
// applied independently to base (moves do not compound) and returns only
// the output powers, in move order, without materializing Results. This
// is the greedy search's hot call: every strategy consumes only the
// scalar power of a candidate move. The powers agree with EvaluateBatch
// on the equivalently moved assignments within 1e-12 relative (see
// transfer.go for the per-tier contract).
type MovePowerEvaluator interface {
	BatchEvaluator
	PowerMoves(g *sfg.Graph, base Assignment, moves []Move) ([]float64, error)
}

// Engine is the throughput-oriented form of the proposed PSD method: a
// concurrency-safe evaluator that caches per-graph state (validated
// topology snapshot, per-node frequency responses, propagation scratch)
// across Evaluate calls, and fans batches of width assignments across a
// worker pool. The word-length optimizer calls the accuracy oracle
// thousands of times on one graph; the engine makes each call cheap.
//
// The cached plan freezes graph *structure*: nodes, edges, responses and
// the noise-source set. Fractional widths may vary freely per call (that is
// the point), but after any structural change call Invalidate. Between
// calls a plan's sources may differ only in Frac: the σ² tables and the
// uniform-width memo below key their cells by width alone, so changing a
// source's mode, input width or moment override also needs Invalidate.
// During EvaluateBatch the graph must not be mutated by anyone.
//
// The cache holds at most PlanCacheCap plans (default 8) and evicts the
// least-recently-used plan on overflow, so an unbounded stream of throwaway
// graphs cannot grow memory without bound; an evicted graph simply re-plans
// on its next evaluation.
//
// Each plan additionally carries the transfer cache (see transfer.go): a
// per-source unit transfer profile that turns evaluation into a fused
// multiply-accumulate and scalar move scores (PowerMoves) into σ²-table
// lookups, with the full per-source propagation retained as the fallback
// for topologies that fail the linearity probe (and available explicitly
// via SetFullPropagation). On either path the plan memoizes the Result
// of every uniform assignment (all sources at one width in [0, 48], at
// most 49 Results) on first use: the strategies' feasibility checks,
// uniform baselines and starting points, and the service's budget probe
// all evaluate uniform assignments, whose results never change for a
// plan. Every caller of a width gets the memo's one *Result. The memo
// lives and dies with its plan: eviction and Invalidate drop it,
// RestorePlan starts it empty, and snapshots do not carry it.
//
// Results are read-only: a memoized Result is shared by every caller of
// its width, so no caller may write into any Result the engine returns.
//
// The read path is lock-free: the plan cache is an immutable snapshot
// swapped through an atomic pointer (copy-on-write), and recency stamps
// are atomics, so any number of concurrent warm lookups — the service's
// steady state — proceed without touching a mutex. e.mu serializes only
// the writers: plan builds, evictions, and cap or mode changes.
type Engine struct {
	npsd    int
	workers int

	plans atomic.Pointer[planMap] // immutable snapshot; see plan()
	tick  atomic.Uint64           // global recency clock

	planBuilds   atomic.Int64 // plans built from scratch (propagation + FFT)
	planRestores atomic.Int64 // plans installed from snapshots (see snapshot.go)

	// planObs, when set, observes every plan build/restore with its
	// duration — the timing companion to the counters above, feeding
	// tracing spans and latency histograms in the serving tier.
	planObs atomic.Pointer[func(PlanEvent)]

	mu        sync.Mutex // serializes plan builds, eviction, cap/mode changes
	planCap   int
	forceFull bool
}

// planMap is one immutable plan-cache snapshot. Readers index the map
// freely (it is never mutated after publication); writers copy, edit and
// atomically republish under Engine.mu.
type planMap struct {
	m map[*sfg.Graph]*planEntry
}

// planEntry pairs a cached plan with its recency stamp for LRU eviction.
// Entries are shared across snapshots; lastUse is atomic because the
// lock-free hit path bumps it concurrently.
type planEntry struct {
	plan    *graphPlan
	lastUse atomic.Uint64
}

// DefaultPlanCacheCap is the default number of per-graph plans an engine
// retains before evicting the least recently used one.
const DefaultPlanCacheCap = 8

// NewEngine returns an engine evaluating on npsd bins with the given worker
// pool width; workers <= 0 selects runtime.GOMAXPROCS(0).
func NewEngine(npsd, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		npsd:    npsd,
		workers: workers,
		planCap: DefaultPlanCacheCap,
	}
	e.plans.Store(&planMap{m: map[*sfg.Graph]*planEntry{}})
	return e
}

// SetPlanCacheCap bounds the number of cached plans; n < 1 is clamped to 1.
// Shrinking below the current cache size evicts least-recently-used plans
// immediately.
func (e *Engine) SetPlanCacheCap(n int) {
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.planCap = n
	cur := e.plans.Load()
	if len(cur.m) <= e.planCap {
		return
	}
	next := clonePlanMap(cur.m, 0)
	evictLRU(next, e.planCap, nil)
	e.plans.Store(&planMap{m: next})
}

// PlanCacheLen reports the number of plans currently cached.
func (e *Engine) PlanCacheLen() int {
	return len(e.plans.Load().m)
}

// SetFullPropagation forces plans built afterwards onto the full
// per-source propagation path, bypassing the transfer cache — the
// reference mode for equivalence testing and A/B timing. It does not
// rebuild plans already cached; call Invalidate (or set the mode before
// the first evaluation) for a clean switch.
func (e *Engine) SetFullPropagation(force bool) {
	e.mu.Lock()
	e.forceFull = force
	e.mu.Unlock()
}

// EvalMode reports which evaluation path the plan for g settled on —
// EvalModeCached (transfer cache validated) or EvalModeFull (forced, or
// the topology failed the linearity probe) — planning g if needed.
func (e *Engine) EvalMode(g *sfg.Graph) (string, error) {
	p, err := e.plan(g)
	if err != nil {
		return "", err
	}
	return p.mode(), nil
}

// Name implements Evaluator.
func (e *Engine) Name() string { return fmt.Sprintf("psd-engine(n=%d,w=%d)", e.npsd, e.workers) }

// Invalidate drops the cached plan for g. Call after structural graph
// changes (added nodes or edges, changed filters, added or removed noise
// sources).
func (e *Engine) Invalidate(g *sfg.Graph) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.plans.Load()
	if _, ok := cur.m[g]; !ok {
		return
	}
	next := clonePlanMap(cur.m, 0)
	delete(next, g)
	e.plans.Store(&planMap{m: next})
}

// plan returns g's cached plan, building (and caching) it on a miss. The
// hit path — every warm call of every public entry point — is lock-free:
// one atomic snapshot load, one map lookup, one atomic recency bump.
// Recency is stamped on hits and misses alike, so any entry point
// (Evaluate, EvaluateBatch, PowerMoves, EvalMode, ...) refreshes its
// graph's LRU position.
func (e *Engine) plan(g *sfg.Graph) (*graphPlan, error) {
	if en, ok := e.plans.Load().m[g]; ok {
		en.lastUse.Store(e.tick.Add(1))
		return en.plan, nil
	}
	p, _, err := e.planMiss(g)
	return p, err
}

// planMiss builds and publishes the plan for g under the writer lock,
// reporting whether this call ran the build (false on a lost race). A
// concurrent reader keeps using whichever snapshot it loaded — plans are
// immutable, so an entry evicted from the published map stays valid for
// the readers still holding it and simply re-plans on its next lookup.
func (e *Engine) planMiss(g *sfg.Graph) (*graphPlan, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.plans.Load()
	if en, ok := cur.m[g]; ok { // lost a build race: reuse the winner's plan
		en.lastUse.Store(e.tick.Add(1))
		return en.plan, false, nil
	}
	start := time.Now()
	p, err := newGraphPlanMode(g, e.npsd, e.forceFull)
	if err != nil {
		return nil, false, err
	}
	e.planBuilds.Add(1)
	e.observePlan(PlanEvent{Kind: PlanBuilt, Duration: time.Since(start)})
	next := clonePlanMap(cur.m, 1)
	en := &planEntry{plan: p}
	en.lastUse.Store(e.tick.Add(1))
	next[g] = en
	evictLRU(next, e.planCap, g)
	e.plans.Store(&planMap{m: next})
	return p, true, nil
}

// PlanEvent reports one plan entering the cache and how long it took.
type PlanEvent struct {
	// Kind is PlanBuilt (propagation + FFT from scratch) or PlanRestored
	// (installed from a snapshot).
	Kind string
	// Duration is the wall time of the build or restore.
	Duration time.Duration
}

// PlanEvent kinds.
const (
	PlanBuilt    = "build"
	PlanRestored = "restore"
)

// SetPlanObserver installs fn to be called after every plan build and
// restore, next to the PlanBuilds/PlanRestores counter bumps. fn runs
// under the engine's writer lock and must be fast and non-blocking; a
// nil fn removes the observer.
func (e *Engine) SetPlanObserver(fn func(PlanEvent)) {
	if fn == nil {
		e.planObs.Store(nil)
		return
	}
	e.planObs.Store(&fn)
}

func (e *Engine) observePlan(ev PlanEvent) {
	if fn := e.planObs.Load(); fn != nil {
		(*fn)(ev)
	}
}

// EnsurePlan plans g if no plan is cached yet, reporting whether this
// call performed the build. Warm lookups (including plans installed by
// RestorePlan or a concurrent builder) return built=false — the
// serving tier uses this to time and attribute cold plan builds
// without disturbing the lock-free hit path.
func (e *Engine) EnsurePlan(g *sfg.Graph) (built bool, err error) {
	if en, ok := e.plans.Load().m[g]; ok {
		en.lastUse.Store(e.tick.Add(1))
		return false, nil
	}
	_, built, err = e.planMiss(g)
	return built, err
}

// clonePlanMap copies a snapshot map with room for extra more entries.
func clonePlanMap(m map[*sfg.Graph]*planEntry, extra int) map[*sfg.Graph]*planEntry {
	next := make(map[*sfg.Graph]*planEntry, len(m)+extra)
	for g, en := range m {
		next[g] = en
	}
	return next
}

// evictLRU removes least-recently-used entries from m until it holds at
// most cap entries, never evicting keep (the entry just inserted — a
// concurrent reader bumping an old entry's stamp past ours must not push
// the fresh plan straight back out).
func evictLRU(m map[*sfg.Graph]*planEntry, cap int, keep *sfg.Graph) {
	for len(m) > cap {
		var victim *sfg.Graph
		var oldest uint64
		for g, en := range m {
			if g == keep {
				continue
			}
			if lu := en.lastUse.Load(); victim == nil || lu < oldest {
				victim, oldest = g, lu
			}
		}
		if victim == nil {
			return
		}
		delete(m, victim)
	}
}

// Evaluate implements Evaluator: it scores g's current source widths,
// reusing the cached plan. Safe to call concurrently as long as the graph
// is not being mutated.
func (e *Engine) Evaluate(g *sfg.Graph) (*Result, error) {
	p, err := e.plan(g)
	if err != nil {
		return nil, err
	}
	return p.evaluate(nil)
}

// EvaluateAssignment scores one hypothetical width assignment without
// touching the graph's stored widths.
func (e *Engine) EvaluateAssignment(g *sfg.Graph, a Assignment) (*Result, error) {
	p, err := e.plan(g)
	if err != nil {
		return nil, err
	}
	return p.evaluate(a)
}

// EvaluateBatch implements BatchEvaluator: it scores every assignment,
// fanning the independent evaluations across the worker pool, and returns
// results in assignment order. The outcome is deterministic and identical
// for any pool width.
func (e *Engine) EvaluateBatch(g *sfg.Graph, as []Assignment) ([]*Result, error) {
	if len(as) == 0 {
		return nil, nil
	}
	p, err := e.plan(g)
	if err != nil {
		return nil, err
	}
	return p.evaluateAll(as, e.workers)
}

// PowerMoves implements MovePowerEvaluator: it scores every single-source
// width change applied (independently) to base and returns only the
// output powers, in move order — on transfer-cached plans O(1) per move
// (one σ²-table lookup plus an O(log S) scalar leaf swap, no per-bin
// traffic and no Result materialization). This is the word-length
// optimizer's per-step hot call. Plans on the full-propagation fallback
// evaluate the moved assignments across the worker pool like a batch and
// extract the powers.
func (e *Engine) PowerMoves(g *sfg.Graph, base Assignment, moves []Move) ([]float64, error) {
	if len(moves) == 0 {
		return nil, nil
	}
	p, err := e.plan(g)
	if err != nil {
		return nil, err
	}
	return p.powerMoves(base, moves, e.workers)
}

// evaluateAll scores assignments across at most workers goroutines,
// returning results in order; the outcome is identical for any pool width.
func (p *graphPlan) evaluateAll(as []Assignment, workers int) ([]*Result, error) {
	results := make([]*Result, len(as))
	errs := make([]error, len(as))
	if workers > len(as) {
		workers = len(as)
	}
	if workers <= 1 {
		for i, a := range as {
			results[i], errs[i] = p.evaluate(a)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(as) {
						return
					}
					results[i], errs[i] = p.evaluate(as[i])
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// graphPlan is the cached per-graph state: the validated structure snapshot,
// every LTI node's sampled frequency response, a pool of propagation
// scratch arenas (one checked out per concurrent evaluation), and — when
// the linearity probe passes — the per-source transfer profiles plus the
// cached-evaluation state machinery of transfer.go.
type graphPlan struct {
	npsd    int
	snap    *sfg.Snapshot
	resp    [][]complex128 // by NodeID; nil for non-LTI nodes
	scratch sync.Pool      // of *evalScratch

	cached    bool              // transfer profiles validated; cached path is canonical
	profiles  []transferProfile // by source index (NoiseSources order)
	srcIndex  []int             // by NodeID: index in NoiseSources order, -1 for non-sources
	cover     int               // largest source ID + 1: the shortest Assignment accepted
	statePool sync.Pool         // of *contribState, for cached evaluation

	sigmaOnce  sync.Once      // lazily builds the σ² width tables
	sigma      [][]sigmaEntry // per-source width→(σ², μ) tables; see sigmaFor
	scalarPool sync.Pool      // of *scalarState, for PowerMoves

	// uniform memoizes, by width on the σ² grid, the shared read-only
	// Result of the assignment giving every source that width; see
	// evaluate.
	uniform [sigmaGridMax - sigmaGridMin + 1]atomic.Pointer[Result]
}

func newGraphPlanMode(g *sfg.Graph, npsd int, forceFull bool) (*graphPlan, error) {
	if npsd < 2 {
		return nil, fmt.Errorf("core: NPSD %d < 2", npsd)
	}
	snap, err := g.Snapshot()
	if err != nil {
		if g.HasCycle() {
			return nil, fmt.Errorf("core: %w (run BreakLoops first)", err)
		}
		return nil, err
	}
	p := &graphPlan{npsd: npsd, snap: snap, resp: make([][]complex128, snap.Len())}
	p.indexSources()
	// Preprocessing (the paper's tau_pp): sample every LTI node's response
	// once per plan instead of once per Evaluate call.
	for _, id := range snap.Order() {
		if n := snap.Node(id); n.IsLTI() {
			p.resp[id] = n.Response(npsd)
		}
	}
	p.scratch.New = func() any { return newEvalScratch(npsd) }
	if !forceFull {
		p.buildProfiles()
	}
	p.statePool.New = func() any { return newContribState(p) }
	p.scalarPool.New = func() any { return newScalarState(p) }
	return p, nil
}

// indexSources fills srcIndex and cover from the plan's snapshot.
func (p *graphPlan) indexSources() {
	p.srcIndex = make([]int, p.snap.Len())
	for i := range p.srcIndex {
		p.srcIndex[i] = -1
	}
	for i, id := range p.snap.NoiseSources() {
		p.srcIndex[id] = i
		p.cover = max(p.cover, int(id)+1)
	}
}

// check is Assignment.Check against the plan's sources.
func (p *graphPlan) check(a Assignment) error {
	if a == nil || len(a) >= p.cover {
		return nil
	}
	for _, id := range p.snap.NoiseSources() {
		if int(id) >= len(a) {
			return uncovered(a, p.snap.Node(id))
		}
	}
	return nil
}

// frac returns source id's width under a (nil means the graph's stored
// widths).
func (p *graphPlan) frac(id sfg.NodeID, a Assignment) int {
	if a == nil {
		return p.snap.Node(id).Noise.Frac
	}
	return a[id]
}

// evaluate scores one assignment (nil means "the graph's current widths")
// through the transfer cache when available, else by full propagation.
// An assignment giving every source the same grid width is served from
// the plan's uniform memo, filled here on first use: every caller of that
// width gets the memo's one Result, which nobody may write into.
// Evaluation is deterministic, so it is bit-identical to a fresh one.
func (p *graphPlan) evaluate(a Assignment) (*Result, error) {
	if err := p.check(a); err != nil {
		return nil, err
	}
	w, uniform := p.uniformWidth(a)
	if uniform {
		if r := p.uniform[w-sigmaGridMin].Load(); r != nil {
			return r, nil
		}
	}
	var r *Result
	if p.cached {
		r = p.evaluateCached(a)
	} else {
		var err error
		if r, err = p.evaluateFull(a); err != nil {
			return nil, err
		}
	}
	if uniform && !p.uniform[w-sigmaGridMin].CompareAndSwap(nil, r) {
		// A concurrent first fill won; hand out its bit-identical Result
		// so every caller of the width shares one.
		r = p.uniform[w-sigmaGridMin].Load()
	}
	return r, nil
}

// uniformWidth reports the width every source takes under a (nil means
// the graph's current widths), when they all take the same width and it
// lies on the σ² grid.
func (p *graphPlan) uniformWidth(a Assignment) (int, bool) {
	sources := p.snap.NoiseSources()
	if len(sources) == 0 {
		return 0, false
	}
	w := p.frac(sources[0], a)
	for _, id := range sources[1:] {
		if p.frac(id, a) != w {
			return 0, false
		}
	}
	return w, w >= sigmaGridMin && w <= sigmaGridMax
}

// evaluateFull is the full per-source propagation — the reference path.
func (p *graphPlan) evaluateFull(a Assignment) (*Result, error) {
	s := p.scratch.Get().(*evalScratch)
	defer p.scratch.Put(s)
	res := &Result{PSD: psd.New(p.npsd)}
	for _, srcID := range p.snap.NoiseSources() {
		src := *p.snap.Node(srcID).Noise
		src.Frac = p.frac(srcID, a)
		m := src.Moments()
		s.reset()
		contrib, err := p.propagate(s, srcID, m.Mean, m.Variance)
		if err != nil {
			return nil, err
		}
		res.PerSource = append(res.PerSource, SourceContribution{
			Name:     src.Name,
			Variance: contrib.Variance(),
			Mean:     contrib.Mean,
		})
		res.Mean += contrib.Mean
		for k, v := range contrib.Bins {
			res.PSD.Bins[k] += v
		}
	}
	res.PSD.Mean = res.Mean
	res.Variance = res.PSD.Variance()
	res.Power = res.Mean*res.Mean + res.Variance
	return res, nil
}

// wave is the propagation state of one source at one node input.
// Exactly one of coh / pow is active: coh holds the complex amplitude
// transfer per bin relative to the source (coherent, LTI-only history);
// pow holds the power-domain PSD after decoherence at a rate changer. All
// backing buffers come from the evaluation's scratch arena.
type wave struct {
	coh []complex128
	pow psd.PSD
}

func (w *wave) coherent() bool { return w.coh != nil }

// propagate pushes one source's wave from srcID's output to the graph
// output and returns its PSD contribution there. The returned PSD's bins
// live in the scratch arena: consume them before the next reset.
func (p *graphPlan) propagate(s *evalScratch, srcID sfg.NodeID, mean, variance float64) (psd.PSD, error) {
	snap := p.snap
	waves := s.waves
	clear(waves)
	// The source is injected at srcID's output: seed its successors with a
	// unit coherent wave.
	unit := s.c()
	for i := range unit {
		unit[i] = 1
	}
	seed := &wave{coh: unit}
	for _, succ := range snap.Succ(srcID) {
		p.merge(s, waves, succ, s.cloneWave(seed), mean, variance)
	}
	start := snap.Pos(srcID)
	outID := snap.OutputNode()
	for _, id := range snap.Order() {
		if snap.Pos(id) <= start {
			continue
		}
		w, ok := waves[id]
		if !ok {
			continue
		}
		delete(waves, id)
		out, err := p.apply(s, snap.Node(id), w, mean, variance)
		if err != nil {
			return psd.PSD{}, err
		}
		if id == outID {
			s.decohere(out, mean, variance)
			return out.pow, nil
		}
		for _, succ := range snap.Succ(id) {
			p.merge(s, waves, succ, s.cloneWave(out), mean, variance)
		}
	}
	// Source does not reach the output (e.g. a pruned branch): zero.
	bins := s.f()
	for i := range bins {
		bins[i] = 0
	}
	return psd.PSD{Bins: bins}, nil
}

// merge accumulates a wave into the pending input of node id, summing
// coherently when both sides still carry phase.
func (p *graphPlan) merge(s *evalScratch, waves map[sfg.NodeID]*wave, id sfg.NodeID, w *wave, mean, variance float64) {
	cur, ok := waves[id]
	if !ok {
		waves[id] = w
		return
	}
	if cur.coherent() && w.coherent() {
		for k := range cur.coh {
			cur.coh[k] += w.coh[k]
		}
		return
	}
	s.decohere(cur, mean, variance)
	s.decohere(w, mean, variance)
	cur.pow.AddInPlace(w.pow)
}

// apply transforms a wave through one node, in place where possible.
func (p *graphPlan) apply(s *evalScratch, node *sfg.Node, w *wave, mean, variance float64) (*wave, error) {
	switch node.Kind {
	case sfg.KindAdder, sfg.KindOutput, sfg.KindInput:
		return w, nil
	case sfg.KindFilter, sfg.KindGain, sfg.KindDelay, sfg.KindCustom:
		r := p.resp[node.ID]
		if w.coherent() {
			for k := range w.coh {
				w.coh[k] *= r[k]
			}
			return w, nil
		}
		w.pow.ApplyLTIInPlace(r)
		return w, nil
	case sfg.KindDown:
		s.decohere(w, mean, variance)
		w.pow = w.pow.DownsampleInto(psd.PSD{Bins: s.f()}, node.Factor)
		return w, nil
	case sfg.KindUp:
		s.decohere(w, mean, variance)
		w.pow = w.pow.UpsampleInto(psd.PSD{Bins: s.f()}, node.Factor)
		return w, nil
	default:
		return nil, fmt.Errorf("core: cannot propagate through node %q of kind %v", node.Name, node.Kind)
	}
}

// evalScratch is a per-evaluation arena: fixed-size complex and real
// buffers plus wave headers are handed out sequentially and reclaimed in
// bulk by reset, so a full propagation allocates nothing in steady state.
type evalScratch struct {
	npsd  int
	waves map[sfg.NodeID]*wave

	cbuf  [][]complex128
	cused int
	fbuf  [][]float64
	fused int
	wbuf  []*wave
	wused int
}

func newEvalScratch(npsd int) *evalScratch {
	return &evalScratch{npsd: npsd, waves: make(map[sfg.NodeID]*wave)}
}

func (s *evalScratch) reset() { s.cused, s.fused, s.wused = 0, 0, 0 }

// c returns an uninitialized npsd-length complex buffer from the arena.
func (s *evalScratch) c() []complex128 {
	if s.cused == len(s.cbuf) {
		s.cbuf = append(s.cbuf, make([]complex128, s.npsd))
	}
	b := s.cbuf[s.cused]
	s.cused++
	return b
}

// f returns an uninitialized npsd-length real buffer from the arena.
func (s *evalScratch) f() []float64 {
	if s.fused == len(s.fbuf) {
		s.fbuf = append(s.fbuf, make([]float64, s.npsd))
	}
	b := s.fbuf[s.fused]
	s.fused++
	return b
}

// newWave returns a cleared wave header from the arena.
func (s *evalScratch) newWave() *wave {
	if s.wused == len(s.wbuf) {
		s.wbuf = append(s.wbuf, &wave{})
	}
	w := s.wbuf[s.wused]
	s.wused++
	*w = wave{}
	return w
}

// cloneWave deep-copies a wave into arena storage.
func (s *evalScratch) cloneWave(w *wave) *wave {
	out := s.newWave()
	if w.coh != nil {
		out.coh = s.c()
		copy(out.coh, w.coh)
		return out
	}
	bins := s.f()
	copy(bins, w.pow.Bins)
	out.pow = psd.PSD{Mean: w.pow.Mean, Bins: bins}
	return out
}

// decohere converts a coherent wave into power domain for a source with
// the given moments: Bins[k] = (variance/N) * |G_k|^2, Mean = mean * G_0.
func (s *evalScratch) decohere(w *wave, mean, variance float64) {
	if w.coh == nil {
		return
	}
	n := len(w.coh)
	bins := s.f()
	per := variance / float64(n)
	for k, g := range w.coh {
		re, im := real(g), imag(g)
		bins[k] = per * (re*re + im*im)
	}
	w.pow = psd.PSD{Mean: mean * real(w.coh[0]), Bins: bins}
	w.coh = nil
}
