package core

import (
	"fmt"

	"repro/internal/psd"
	"repro/internal/qnoise"
)

// This file implements the transfer-cache layer of the engine — the
// evaluate-once-query-many structure the word-length optimizer leans on.
//
// Source moments enter the propagation of engine.go in exactly one place:
// decohere scales the squared path response by the source variance and the
// DC gain by the source mean, and every later power-domain operation
// (|H|^2 scaling, aliasing, imaging, uncorrelated addition) is linear in
// bins and mean separately. A source's output contribution is therefore
//
//	Bins_out[k] = variance * S_k      Mean_out = mean * G
//
// with S_k and G independent of the source width. Plan construction
// propagates a unit-moment (mean 1, variance 1) wave from each source once
// and caches (S_k, G) as that source's transferProfile. Evaluate then
// reduces to one fused multiply per source per bin (see contribState),
// and a candidate move's scalar score to one σ²-table lookup plus an
// O(log S) scalar leaf swap with no per-bin traffic at all (see
// scalarState — every optimizer strategy consumes only the scalar output
// power). Graphs whose propagation fails the exactness probe below fall
// back to full propagation.
//
// Bit-identity contract, per tier:
//
//   - Evaluate, EvaluateAssignment and EvaluateBatch reduce contributions
//     through the same fixed-shape pairwise tree and are bit-identical to
//     one another for any worker count.
//   - PowerMoves is the only move-scoring path. Its powers are within
//     1e-12 relative of the batch paths' on the equivalently moved
//     assignments (the same real sum, associated per source instead of
//     per bin) and bit-identical for any worker count. On a
//     full-propagation plan it evaluates the moved assignments through
//     EvaluateBatch's code, so there its powers equal the batch powers
//     exactly.
//   - The retained full-propagation path is the reference all cached
//     tiers are compared against (within 1e-12 relative; exactly equal on
//     graphs that stay coherent to the output when npsd is a power of
//     two, where the cached rounding coincides with the propagated
//     rounding).

// transferProfile is one noise source's cached width-independent transfer:
// the output PSD of a unit-variance injection and the output mean of a
// unit-mean injection, plus the scalar energy of the unit shape — the
// canonical bin sum of bins, i.e. the output variance a unit-variance
// source contributes. The energy is what the scalar move-scoring tier
// leans on conceptually (σ²(w) ≈ variance(w) · energy); the σ² tables it
// actually serves from are built with the exact scale-then-sum kernel of
// the per-bin path so the table stays bit-identical to it (see sigmaFor).
type transferProfile struct {
	bins     []float64 // output AC bins per unit source variance
	meanGain float64   // output mean per unit source mean
	energy   float64   // psd.Sum(bins): output variance per unit source variance
}

// buildProfiles propagates a unit wave from every source and validates the
// linearity assumption; on success the plan switches to the cached path.
//
// The validation probe re-propagates with mean -8 and variance 4. Every
// arithmetic operation on the propagation path is exact under scaling by a
// power of two (float multiplication and addition commute with exponent
// shifts, barring overflow), so for a propagation that is genuinely linear
// in the source moments the probe must equal the scaled unit profile
// bit-for-bit; any mismatch — including NaN or overflow — marks the
// topology as breaking the linearity assumptions and keeps full
// propagation as the evaluation path. The probe moments are chosen with
// mean^2 != variance so that bin energy proportional to mean^2 (a DC
// power term a future op might fold in) scales by 64 and cannot
// masquerade as the variance-linear model's factor of 4.
func (p *graphPlan) buildProfiles() {
	sources := p.snap.NoiseSources()
	p.profiles = make([]transferProfile, len(sources))
	s := p.scratch.Get().(*evalScratch)
	defer p.scratch.Put(s)
	for i, id := range sources {
		s.reset()
		unit, err := p.propagate(s, id, 1, 1)
		if err != nil {
			return
		}
		prof := transferProfile{
			bins:     append([]float64(nil), unit.Bins...),
			meanGain: unit.Mean,
			energy:   psd.Sum(unit.Bins),
		}
		s.reset()
		probe, err := p.propagate(s, id, -8, 4)
		if err != nil {
			return
		}
		if probe.Mean != -8*prof.meanGain {
			return
		}
		for k, b := range probe.Bins {
			if b != 4*prof.bins[k] {
				return
			}
		}
		p.profiles[i] = prof
	}
	p.cached = true
}

// The σ²-table tier: every strategy consumes only the scalar output power
// of a candidate move, so per-bin work would be wasted on the hot loop.
// For each source the plan memoizes, over the feasible width grid, the
// scalar pair (σ²(w), μ(w)) — the per-source output variance and mean at
// width w. Each entry is computed with the exact scale-then-sum kernel
// fillLeaf runs (psd.ScaleInto followed by the canonical psd.Sum), so a
// table lookup is bit-identical to the per-bin path's per-source variance
// by construction, and a move score becomes one lookup plus a fixed-shape
// scalar walk up the contribution tree (see scalarState).

// sigmaGridMin/Max bound the memoized width grid. wlopt clamps widths to
// [1, 48]; widths outside the grid fall back to computing the same kernel
// directly (cold path, still bit-identical).
const (
	sigmaGridMin = 0
	sigmaGridMax = 48
)

// sigmaEntry is one memoized (width → scalar contribution) table cell.
type sigmaEntry struct {
	vari float64 // σ²(w): output variance this source contributes
	mean float64 // μ(w): output mean this source contributes
}

// buildSigmaTables fills the per-source width→(σ², μ) tables. Invoked
// lazily (once per plan) on the first scalar lookup, so plans that never
// score moves skip the grid sweep. The sweep is a single fused pass over
// each profile's bins accumulating every width at once: acc_w += v_w·b_k
// in ascending k performs, per width, exactly the multiplies and
// additions of fillLeaf's psd.ScaleInto followed by psd.Sum — the same
// values in the same order, so every table cell is bit-identical to the
// per-bin path — without materializing any scaled buffer.
func (p *graphPlan) buildSigmaTables() {
	const nw = sigmaGridMax - sigmaGridMin + 1
	p.sigma = make([][]sigmaEntry, len(p.profiles))
	var vars, acc [nw]float64
	for i := range p.profiles {
		prof := &p.profiles[i]
		tab := make([]sigmaEntry, nw)
		for w := range tab {
			m := p.resolveSourceFrac(i, sigmaGridMin+w)
			vars[w] = m.Variance
			acc[w] = 0
			tab[w].mean = m.Mean * prof.meanGain
		}
		for _, b := range prof.bins {
			for w := range acc {
				acc[w] += vars[w] * b
			}
		}
		for w := range tab {
			tab[w].vari = acc[w]
		}
		p.sigma[i] = tab
	}
}

// sigmaTables builds the σ² tables on first use. Call it once before a
// run of sigmaFor lookups.
func (p *graphPlan) sigmaTables() { p.sigmaOnce.Do(p.buildSigmaTables) }

// sigmaFor returns source i's scalar output contribution (σ², μ) at the
// given width: a table lookup on the grid, the same fused
// scale-and-accumulate kernel off it. Either way the value is
// bit-identical to what fillLeaf's per-bin path computes for that width.
// The tables must be built (sigmaTables).
func (p *graphPlan) sigmaFor(i, frac int) (vari, mean float64) {
	if frac >= sigmaGridMin && frac <= sigmaGridMax {
		e := p.sigma[i][frac-sigmaGridMin]
		return e.vari, e.mean
	}
	m := p.resolveSourceFrac(i, frac)
	var acc float64
	for _, b := range p.profiles[i].bins {
		acc += m.Variance * b
	}
	return acc, m.Mean * p.profiles[i].meanGain
}

// contribState is the canonical cached evaluation of one assignment: the
// per-source contribution leaves (variance * profile bins) combined through
// a fixed-shape pairwise reduction tree whose root is the output PSD. The
// tree makes a pooled state's rebuild exact: swapping one leaf and
// recombining its root path performs the identical float additions a fresh
// build performs, so a state rebuilt for a new assignment is bit-identical
// to one built from scratch — at O(npsd * log S) per changed leaf instead
// of O(S * npsd).
//
// Tree shape: level 0 holds the S leaves; each higher level pairs
// neighbours, an odd tail node passing through by aliasing the child's
// storage (no addition, hence no rounding). For S <= 3 the reduction order
// degenerates to the sequential left-to-right sum of the full path.
type contribState struct {
	plan *graphPlan

	fracs []int // resolved width per source — the state's identity

	leafBins [][]float64 // S x npsd source contributions
	leafMean []float64   // per-source mean contributions
	perVar   []float64   // per-source variances: Sum(leafBins[i])

	binLevels  [][][]float64 // reduction levels above the leaves
	meanLevels [][]float64   // matching scalar reduction for the means

	dirty []int     // scratch for build's changed-leaf bookkeeping
	zero  []float64 // root stand-in for source-free graphs
}

func newContribState(p *graphPlan) *contribState {
	n := len(p.profiles)
	st := &contribState{
		plan:     p,
		fracs:    make([]int, n),
		leafBins: make([][]float64, n),
		leafMean: make([]float64, n),
		perVar:   make([]float64, n),
	}
	for i := range st.fracs {
		st.fracs[i] = -1 << 30 // never equal to a real width: first build always fills
		st.leafBins[i] = make([]float64, p.npsd)
	}
	if n == 0 {
		st.zero = make([]float64, p.npsd)
		return st
	}
	// Allocate the reduction levels once; passthrough nodes alias their
	// child's storage so recombination skips them entirely.
	level := st.leafBins
	for len(level) > 1 {
		next := make([][]float64, (len(level)+1)/2)
		nextMean := make([]float64, len(next))
		for j := range next {
			if 2*j+1 < len(level) {
				next[j] = make([]float64, p.npsd)
			} else {
				next[j] = level[2*j]
			}
		}
		st.binLevels = append(st.binLevels, next)
		st.meanLevels = append(st.meanLevels, nextMean)
		level = next
	}
	return st
}

// childBins returns the bin rows feeding level l (the leaves for l == 0).
func (st *contribState) childBins(l int) [][]float64 {
	if l == 0 {
		return st.leafBins
	}
	return st.binLevels[l-1]
}

func (st *contribState) childMeans(l int) []float64 {
	if l == 0 {
		return st.leafMean
	}
	return st.meanLevels[l-1]
}

// fillLeaf computes source i's contribution at width frac from its
// cached profile.
func (st *contribState) fillLeaf(i, frac int) {
	prof := &st.plan.profiles[i]
	m := st.plan.resolveSourceFrac(i, frac)
	psd.ScaleInto(st.leafBins[i], prof.bins, m.Variance)
	st.leafMean[i] = m.Mean * prof.meanGain
	st.perVar[i] = psd.Sum(st.leafBins[i])
}

// combinePath recombines the ancestors of leaf i, bottom-up.
func (st *contribState) combinePath(i int) {
	idx := i
	for l := range st.binLevels {
		parent := idx / 2
		children, means := st.childBins(l), st.childMeans(l)
		if 2*parent+1 < len(children) {
			psd.AddInto(st.binLevels[l][parent], children[2*parent], children[2*parent+1])
			st.meanLevels[l][parent] = means[2*parent] + means[2*parent+1]
		} else {
			// Passthrough: bins alias the child; only the mean copies.
			st.meanLevels[l][parent] = means[2*parent]
		}
		idx = parent
	}
}

// build (re)computes the state for the resolved widths of assignment a.
// Leaves whose width is unchanged are reused as-is — a leaf depends on
// its source's width alone, since any other change to a source needs
// Invalidate (see Engine), so its stored values are bit-identical to a
// recomputation — and when only a few leaves moved, only their root paths
// are recombined (the same additions a full recombination would perform
// on those nodes, so the tree contents are bit-identical either way).
func (st *contribState) build(a Assignment) {
	changed := st.dirty[:0]
	for i, id := range st.plan.snap.NoiseSources() {
		frac := st.plan.frac(id, a)
		if frac == st.fracs[i] {
			continue
		}
		st.fracs[i] = frac
		st.fillLeaf(i, frac)
		changed = append(changed, i)
	}
	st.dirty = changed
	if len(changed) == 0 {
		return
	}
	// Path recombination beats a full pass while the changed paths touch
	// fewer internal nodes than the tree holds (paths may share ancestors,
	// making this an over-estimate — still the right cheap heuristic).
	if len(changed)*max(len(st.binLevels), 1) < len(st.fracs) {
		for _, i := range changed {
			st.combinePath(i)
		}
		return
	}
	for l := range st.binLevels {
		children, means := st.childBins(l), st.childMeans(l)
		for j := range st.binLevels[l] {
			if 2*j+1 < len(children) {
				psd.AddInto(st.binLevels[l][j], children[2*j], children[2*j+1])
				st.meanLevels[l][j] = means[2*j] + means[2*j+1]
			} else {
				st.meanLevels[l][j] = means[2*j]
			}
		}
	}
}

// rootBins returns the reduced output bins.
func (st *contribState) rootBins() []float64 {
	if len(st.leafBins) == 0 {
		return st.zero
	}
	if len(st.binLevels) == 0 {
		return st.leafBins[0]
	}
	return st.binLevels[len(st.binLevels)-1][0]
}

func (st *contribState) rootMean() float64 {
	if len(st.leafMean) == 0 {
		return 0
	}
	if len(st.meanLevels) == 0 {
		return st.leafMean[0]
	}
	return st.meanLevels[len(st.meanLevels)-1][0]
}

// result materializes the state into a Result, matching the full path's
// field derivations (variance as the canonical bin sum, power from mean
// and variance).
func (st *contribState) result() *Result {
	p := st.plan
	root := st.rootBins()
	res := &Result{PSD: psd.New(p.npsd)}
	copy(res.PSD.Bins, root)
	res.Mean = st.rootMean()
	res.PSD.Mean = res.Mean
	res.Variance = psd.Sum(root)
	res.Power = res.Mean*res.Mean + res.Variance
	sources := p.snap.NoiseSources()
	res.PerSource = make([]SourceContribution, len(sources))
	for i, id := range sources {
		res.PerSource[i] = SourceContribution{
			Name:     p.snap.Node(id).Noise.Name,
			Variance: st.perVar[i],
			Mean:     st.leafMean[i],
		}
	}
	return res
}

// resolveSourceFrac is resolveSource with an explicit width override.
func (p *graphPlan) resolveSourceFrac(i, frac int) qnoise.Moments {
	id := p.snap.NoiseSources()[i]
	src := *p.snap.Node(id).Noise
	src.Frac = frac
	return src.Moments()
}

// evaluateCached scores one assignment through the transfer cache using a
// pooled state. Requires p.cached.
func (p *graphPlan) evaluateCached(a Assignment) *Result {
	st := p.statePool.Get().(*contribState)
	st.build(a)
	res := st.result()
	p.statePool.Put(st)
	return res
}

// scalarState is the O(1)-per-move scoring tier: the scalar shadow of a
// contribState. It holds only the per-source scalar contributions (σ², μ)
// of a base assignment and their reductions through the same fixed-shape
// pairwise tree, no bins at all. Its leaf values come from the σ² width
// tables (bit-identical to fillLeaf's scale-then-sum by construction), so
// a powerForMove score is the moved assignment's power with the variance
// summed per source instead of per bin, touching O(log S) scalars.
type scalarState struct {
	plan *graphPlan

	fracs []int // resolved width per source — the state's identity

	vars  []float64 // per-source output variances σ²(w)
	means []float64 // per-source output means μ(w)

	varLevels  [][]float64 // scalar reduction levels above the leaves
	meanLevels [][]float64

	dirty []int // scratch for build's changed-leaf bookkeeping
}

func newScalarState(p *graphPlan) *scalarState {
	n := len(p.profiles)
	ss := &scalarState{
		plan:  p,
		fracs: make([]int, n),
		vars:  make([]float64, n),
		means: make([]float64, n),
	}
	for i := range ss.fracs {
		ss.fracs[i] = -1 << 30 // never a real width: first build fills all
	}
	// Same level shape as contribState's tree, scalars only.
	width := n
	for width > 1 {
		next := (width + 1) / 2
		ss.varLevels = append(ss.varLevels, make([]float64, next))
		ss.meanLevels = append(ss.meanLevels, make([]float64, next))
		width = next
	}
	return ss
}

func (ss *scalarState) childVars(l int) []float64 {
	if l == 0 {
		return ss.vars
	}
	return ss.varLevels[l-1]
}

func (ss *scalarState) childMeans(l int) []float64 {
	if l == 0 {
		return ss.means
	}
	return ss.meanLevels[l-1]
}

// combinePath recombines the scalar ancestors of leaf i, bottom-up, in
// the tree order contribState.combinePath uses for its bins.
func (ss *scalarState) combinePath(i int) {
	idx := i
	for l := range ss.varLevels {
		parent := idx / 2
		vars, means := ss.childVars(l), ss.childMeans(l)
		if 2*parent+1 < len(vars) {
			ss.varLevels[l][parent] = vars[2*parent] + vars[2*parent+1]
			ss.meanLevels[l][parent] = means[2*parent] + means[2*parent+1]
		} else {
			ss.varLevels[l][parent] = vars[2*parent]
			ss.meanLevels[l][parent] = means[2*parent]
		}
		idx = parent
	}
}

// build (re)computes the scalar state for assignment a, reusing leaves
// whose width is unchanged exactly like contribState.build — table
// lookups replace the per-bin scale-and-sum, with bit-identical leaf
// values. The σ² tables must be built.
func (ss *scalarState) build(a Assignment) {
	changed := ss.dirty[:0]
	for i, id := range ss.plan.snap.NoiseSources() {
		frac := ss.plan.frac(id, a)
		if frac == ss.fracs[i] {
			continue
		}
		ss.fracs[i] = frac
		ss.vars[i], ss.means[i] = ss.plan.sigmaFor(i, frac)
		changed = append(changed, i)
	}
	ss.dirty = changed
	if len(changed) == 0 {
		return
	}
	if len(changed)*max(len(ss.varLevels), 1) < len(ss.fracs) {
		for _, i := range changed {
			ss.combinePath(i)
		}
		return
	}
	for l := range ss.varLevels {
		vars, means := ss.childVars(l), ss.childMeans(l)
		for j := range ss.varLevels[l] {
			if 2*j+1 < len(vars) {
				ss.varLevels[l][j] = vars[2*j] + vars[2*j+1]
				ss.meanLevels[l][j] = means[2*j] + means[2*j+1]
			} else {
				ss.varLevels[l][j] = vars[2*j]
				ss.meanLevels[l][j] = means[2*j]
			}
		}
	}
}

// powerForMove scores the base assignment with source si moved to frac:
// one σ²-table lookup plus the fixed-shape scalar walk up the tree, at
// O(log S) cost with no per-bin traffic. The base state is not mutated.
func (ss *scalarState) powerForMove(si, frac int) float64 {
	curVar, curMean := ss.plan.sigmaFor(si, frac)
	idx := si
	for l := range ss.varLevels {
		parent := idx / 2
		vars := ss.childVars(l)
		if 2*parent+1 < len(vars) {
			sib := idx ^ 1
			curVar += vars[sib]
			curMean += ss.childMeans(l)[sib]
		}
		idx = parent
	}
	return curMean*curMean + curVar
}

// powerMoves is the scalar scoring entry: output powers only, one table
// lookup plus a scalar leaf-swap per move on cached plans. On the
// full-propagation fallback it evaluates the moved assignments through
// evaluateAll, the code EvaluateBatch runs, and extracts their powers.
func (p *graphPlan) powerMoves(base Assignment, moves []Move, workers int) ([]float64, error) {
	if err := p.check(base); err != nil {
		return nil, err
	}
	for _, mv := range moves {
		if mv.Source < 0 || int(mv.Source) >= len(p.srcIndex) || p.srcIndex[mv.Source] < 0 {
			return nil, fmt.Errorf("core: move on node %d, which is not a noise source", mv.Source)
		}
	}
	out := make([]float64, len(moves))
	if !p.cached {
		if base == nil {
			base = make(Assignment, p.cover)
			for _, id := range p.snap.NoiseSources() {
				base[id] = p.snap.Node(id).Noise.Frac
			}
		}
		as := make([]Assignment, len(moves))
		for i, mv := range moves {
			as[i] = base.Clone()
			as[i][mv.Source] = mv.Frac
		}
		rs, err := p.evaluateAll(as, workers)
		if err != nil {
			return nil, err
		}
		for i, r := range rs {
			out[i] = r.Power
		}
		return out, nil
	}
	p.sigmaTables()
	ss := p.scalarPool.Get().(*scalarState)
	ss.build(base)
	for i, mv := range moves {
		out[i] = ss.powerForMove(p.srcIndex[mv.Source], mv.Frac)
	}
	p.scalarPool.Put(ss)
	return out, nil
}

// EvalMode names the evaluation path a plan settled on.
const (
	// EvalModeCached: per-source transfer profiles validated; evaluation is
	// a fused multiply-accumulate and moves score from the σ² tables.
	EvalModeCached = "cached"
	// EvalModeFull: profiles unavailable (nonlinear topology or forced);
	// every call runs the full per-source propagation.
	EvalModeFull = "full"
)

func (p *graphPlan) mode() string {
	if p.cached {
		return EvalModeCached
	}
	return EvalModeFull
}
