package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/psd"
	"repro/internal/sfg"
)

// This file is the engine's snapshot/restore API: the serialization layer
// that turns a transfer-cached plan's warm state — the per-source transfer
// profiles and σ²-tables, the two artifacts whose construction (graph
// propagation plus FFT response sampling) dominates plan build — into a
// plain data structure and back. The warm state is a pure function of the
// optimization problem's content (the spec digest) and the PSD grid size,
// so a PlanSnapshot taken on one process is valid for any graph built from
// the same spec in any other process. internal/store persists snapshots in
// a content-addressed on-disk store keyed by (digest, npsd); a restored
// daemon then skips plan build entirely — RestorePlan runs no propagation
// and samples no frequency responses.
//
// Bit-identity: a restored plan serves results bit-identical to a freshly
// built one. Profiles round-trip as exact float64 values, the derived
// energy is recomputed with the same canonical psd.Sum kernel over the same
// bits, and the σ²-tables are restored cell-for-cell, so every tier
// (Evaluate, EvaluateBatch, PowerMoves) reproduces the fresh plan's
// outputs exactly. TestPlanSnapshotRoundTripBitIdentical pins this across
// the whole registry.

// ErrPlanNotCached is returned by SnapshotPlan for plans on the
// full-propagation fallback: their warm state is the propagation itself,
// so there is nothing width-independent to persist.
var ErrPlanNotCached = errors.New("core: plan is not transfer-cached; nothing to snapshot")

// PlanSnapshot is the serializable warm state of one transfer-cached plan.
// It freezes no graph structure — only the per-source transfer artifacts —
// so it must be restored onto a graph built from the same spec content
// (same digest) with a matching PSD grid size.
type PlanSnapshot struct {
	// NPSD is the PSD grid size the plan was built at.
	NPSD int
	// Sources holds the per-source warm state in the graph's
	// NoiseSources order.
	Sources []SourcePlanState
}

// SourcePlanState is one noise source's cached transfer state.
type SourcePlanState struct {
	// Name is the source name, used to validate that a snapshot is being
	// restored onto the graph it describes.
	Name string
	// Bins is the output AC PSD per unit source variance (the transfer
	// profile), NPSD values.
	Bins []float64
	// MeanGain is the output mean per unit source mean.
	MeanGain float64
	// Sigma is the width→(σ², μ) table over [sigmaGridMin, sigmaGridMax].
	Sigma []SigmaCell
}

// SigmaCell is one σ²-table entry: the output variance and mean this
// source contributes at one grid width.
type SigmaCell struct {
	Variance float64
	Mean     float64
}

// SnapshotPlan returns the warm state of g's plan, planning g first if
// needed. Only transfer-cached plans are snapshottable; plans on the
// full-propagation fallback return ErrPlanNotCached. The σ²-tables are
// built (once, as on the first scalar move score) before capture, so a
// restored plan is warm through the scalar tier too.
func (e *Engine) SnapshotPlan(g *sfg.Graph) (*PlanSnapshot, error) {
	p, err := e.plan(g)
	if err != nil {
		return nil, err
	}
	if !p.cached {
		return nil, ErrPlanNotCached
	}
	p.sigmaTables()
	ps := &PlanSnapshot{
		NPSD:    p.npsd,
		Sources: make([]SourcePlanState, len(p.profiles)),
	}
	for i, id := range p.snap.NoiseSources() {
		prof := &p.profiles[i]
		src := SourcePlanState{
			Name:     p.snap.Node(id).Noise.Name,
			Bins:     append([]float64(nil), prof.bins...),
			MeanGain: prof.meanGain,
			Sigma:    make([]SigmaCell, len(p.sigma[i])),
		}
		for w, cell := range p.sigma[i] {
			src.Sigma[w] = SigmaCell{Variance: cell.vari, Mean: cell.mean}
		}
		ps.Sources[i] = src
	}
	return ps, nil
}

// RestorePlan installs a previously snapshotted plan for g without running
// any propagation or frequency-response sampling — the restored plan goes
// straight to the transfer-cached evaluation path with warm σ²-tables. The
// snapshot must describe g: the PSD grid size must match the engine's and
// the source list (count, order, names) must match g's noise sources;
// callers keying snapshots by spec digest get this for free. A graph that
// already has a cached plan is left untouched (it is already warm, and its
// state is bit-identical to the snapshot's by the digest contract).
//
// Restored plans serve results bit-identical to freshly built ones for all
// evaluation tiers; only the full-propagation reference path is absent,
// which transfer-cached plans never take.
func (e *Engine) RestorePlan(g *sfg.Graph, ps *PlanSnapshot) error {
	start := time.Now()
	if ps == nil {
		return fmt.Errorf("core: restore: nil snapshot")
	}
	if ps.NPSD != e.npsd {
		return fmt.Errorf("core: restore: snapshot NPSD %d does not match engine NPSD %d", ps.NPSD, e.npsd)
	}
	snap, err := g.Snapshot()
	if err != nil {
		if g.HasCycle() {
			return fmt.Errorf("core: restore: %w (run BreakLoops first)", err)
		}
		return fmt.Errorf("core: restore: %w", err)
	}
	sources := snap.NoiseSources()
	if len(ps.Sources) != len(sources) {
		return fmt.Errorf("core: restore: snapshot has %d sources, graph has %d", len(ps.Sources), len(sources))
	}
	const nw = sigmaGridMax - sigmaGridMin + 1
	for i, id := range sources {
		src := &ps.Sources[i]
		if name := snap.Node(id).Noise.Name; src.Name != name {
			return fmt.Errorf("core: restore: source %d is %q in the snapshot but %q in the graph", i, src.Name, name)
		}
		if len(src.Bins) != ps.NPSD {
			return fmt.Errorf("core: restore: source %q has %d bins, want %d", src.Name, len(src.Bins), ps.NPSD)
		}
		if len(src.Sigma) != nw {
			return fmt.Errorf("core: restore: source %q has %d σ² cells, want %d", src.Name, len(src.Sigma), nw)
		}
	}

	p := &graphPlan{npsd: e.npsd, snap: snap}
	// resp stays nil: a restored plan is cached-mode by construction and
	// never takes the propagation path, so no responses are ever sampled.
	p.scratch.New = func() any { return newEvalScratch(p.npsd) }
	p.indexSources()
	p.profiles = make([]transferProfile, len(sources))
	p.sigma = make([][]sigmaEntry, len(sources))
	for i := range sources {
		src := &ps.Sources[i]
		bins := append([]float64(nil), src.Bins...)
		p.profiles[i] = transferProfile{
			bins:     bins,
			meanGain: src.MeanGain,
			// Recomputed with the canonical kernel over the identical
			// bits, so the value equals the freshly built plan's.
			energy: psd.Sum(bins),
		}
		tab := make([]sigmaEntry, nw)
		for w, cell := range src.Sigma {
			tab[w] = sigmaEntry{vari: cell.Variance, mean: cell.Mean}
		}
		p.sigma[i] = tab
	}
	p.cached = true
	p.sigmaOnce.Do(func() {}) // tables are restored; never rebuild them
	p.statePool.New = func() any { return newContribState(p) }
	p.scalarPool.New = func() any { return newScalarState(p) }

	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.plans.Load()
	if en, ok := cur.m[g]; ok {
		// The graph is already planned (and, by the digest contract,
		// bit-identical to the snapshot): keep the warm plan.
		en.lastUse.Store(e.tick.Add(1))
		return nil
	}
	next := clonePlanMap(cur.m, 1)
	en := &planEntry{plan: p}
	en.lastUse.Store(e.tick.Add(1))
	next[g] = en
	evictLRU(next, e.planCap, g)
	e.plans.Store(&planMap{m: next})
	e.planRestores.Add(1)
	e.observePlan(PlanEvent{Kind: PlanRestored, Duration: time.Since(start)})
	return nil
}

// PlanBuilds reports how many plans this engine has built from scratch
// (graph propagation + response sampling). Restored plans do not count.
func (e *Engine) PlanBuilds() int64 { return e.planBuilds.Load() }

// PlanRestores reports how many plans this engine has installed from
// snapshots via RestorePlan.
func (e *Engine) PlanRestores() int64 { return e.planRestores.Load() }
