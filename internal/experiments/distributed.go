package experiments

// Distributed runs: the experiment-level face of the sweep engine's
// plan/execute/merge split. A shardable experiment (one defining
// Sweeps/Tabulate) exposes its sweeps, so they can run in-process here or
// as a leased run over a shared store (leased.go), where any split or
// resume folds to the bytes of a single process.

import (
	"context"
	"fmt"

	"repro/internal/sweep"
)

// normalizedConfig strips the fields that cannot change result bytes —
// worker count, the perf toggles, and the ball-sourcing backend — so
// executors launched with different parallelism or backends share one run.
// StreamIDs stays: it selects a different permutation family and thus
// different bytes.
func normalizedConfig(cfg Config) Config {
	cfg.Workers = 0
	cfg.NoKernels = false
	cfg.Backend = ""
	return cfg
}

// RunSweeps executes every sweep of a shardable experiment and returns the
// per-sweep aggregates, in Sweeps order. Durable progress and static
// splits both live in a lease store (RunLeasedSweeps), so shard must be
// zero and checkpointPath empty; anything else is an error pointing there.
func RunSweeps(ctx context.Context, e Experiment, cfg Config, shard sweep.Shard, checkpointPath string) ([]*sweep.Result, error) {
	if checkpointPath != "" {
		return nil, fmt.Errorf("experiments: checkpoint files are not supported; make a run resumable with -store DIR -lease and resume it by re-running the same command")
	}
	if !shard.IsZero() {
		return nil, fmt.Errorf("experiments: in-process shard runs are not supported; split a run with -store DIR -shard I/M and merge it with sweepmerge -store DIR")
	}
	if !e.Shardable() {
		return nil, fmt.Errorf("experiments: %s does not expose its sweeps; it cannot run sharded", e.ID)
	}
	specs, err := expandSweeps(e, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s sweeps: %w", e.ID, err)
	}
	results := make([]*sweep.Result, len(specs))
	for k := range specs {
		if results[k], err = sweep.Run(ctx, specs[k]); err != nil {
			return nil, fmt.Errorf("experiments: %s sweep %d: %w", e.ID, k, err)
		}
	}
	return results, nil
}
