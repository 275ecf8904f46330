//go:build !race

// The race detector makes sync.Pool drop items at random, so these
// allocation counts hold only without it.

package core

import (
	"runtime/debug"
	"testing"
)

// TestSearchCallAllocations pins what the search loop's two engine calls
// allocate once a plan is warm. A batch of uniform widths served from the
// memo allocates the same few objects whatever its length and grid size:
// its result and error slices, no copy of any Result. A PowerMoves call
// allocates only the slice of powers it returns.
func TestSearchCallAllocations(t *testing.T) {
	old := debug.SetGCPercent(-1) // a collection empties the pools
	defer debug.SetGCPercent(old)
	g := cascadeSpecGraph(t)
	sources := g.NoiseSources()

	const batchAllocs = 2
	for _, npsd := range []int{64, 1024} {
		eng := NewEngine(npsd, 1)
		for _, k := range []int{1, 4, memoWidths} {
			as := uniformAssignments(g)[:k]
			if _, err := eng.EvaluateBatch(g, as); err != nil { // fills the memo
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := eng.EvaluateBatch(g, as); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != batchAllocs {
				t.Fatalf("npsd %d: a memo-hit batch of %d widths allocates %.1f objects, want %d", npsd, k, allocs, batchAllocs)
			}
		}

		base := UniformAssignment(sources, 12)
		base[sources[3]] = 9
		moves := make([]Move, len(sources))
		for i, id := range sources {
			moves[i] = Move{Source: id, Frac: base[id] - 1}
		}
		for _, b := range []Assignment{base, nil} {
			if _, err := eng.PowerMoves(g, b, moves); err != nil { // σ² tables, pooled state
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := eng.PowerMoves(g, b, moves); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 1 {
				t.Fatalf("npsd %d, base nil=%v: a warm PowerMoves allocates %.1f objects, want 1 (its output)", npsd, b == nil, allocs)
			}
		}
	}
}
