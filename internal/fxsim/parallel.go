package fxsim

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/sfg"
)

// RunParallel splits a Monte-Carlo run across independent seeded shards and
// merges their statistics with the parallel Welford combination. Shards use
// seeds Seed, Seed+1, ..., and the first Samples mod shards of them draw one
// sample more than the rest, so the result is deterministic for a given
// (Seed, shards) pair but differs from a single Run of the same total
// length. Error-PSD estimation and KeepError are not supported here — use
// Run for those.
func RunParallel(g *sfg.Graph, cfg Config, shards int) (*Outcome, error) {
	if shards < 1 {
		return nil, fmt.Errorf("fxsim: shard count %d < 1", shards)
	}
	if cfg.PSDBins >= 2 || cfg.KeepError {
		return nil, fmt.Errorf("fxsim: RunParallel does not support PSD estimation or error retention")
	}
	if len(cfg.InputSignals) > 0 {
		return nil, fmt.Errorf("fxsim: RunParallel requires generated stimuli")
	}
	if cfg.Samples <= 0 {
		return nil, fmt.Errorf("fxsim: non-positive sample count %d", cfg.Samples)
	}
	if cfg.Samples < shards {
		return nil, fmt.Errorf("fxsim: %d samples across %d shards leaves empty shards", cfg.Samples, shards)
	}
	type shardResult struct {
		acc *accumulator
		err error
	}
	results := make([]shardResult, shards)
	var wg sync.WaitGroup
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sub := cfg
			sub.Samples = cfg.Samples / shards
			if i < cfg.Samples%shards {
				sub.Samples++
			}
			sub.Seed = cfg.Seed + int64(i)
			results[i].acc, results[i].err = simulate(g, sub, chunkLen)
		}(i)
	}
	wg.Wait()
	merged := &accumulator{cfg: cfg}
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		merged.merge(r.acc)
	}
	return merged.outcome()
}
