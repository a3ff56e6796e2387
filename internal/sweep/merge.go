package sweep

// This file is the MERGE layer: the deterministic folding of partial
// aggregates back into one Result. It is the same fold the execute layer
// applies in-process — integer totals add, histograms add, extremal trials
// are selected by (value, trial index) — exported so aggregates can cross a
// process boundary: per-grain completion records from any number of lease
// executors, a prefix plus a resumed run, or any other partition of the
// trial space, all merge to bytes identical to a single uninterrupted run.

import (
	"context"
	"fmt"
)

// finish merges the worker shards into the final Result and classifies how
// the sweep ended: clean, failed, or cancelled with partial aggregates.
// total is the number of WEIGHTED trials the plan asked for (after the
// Done carve-out) — under a quotient each planned
// representative counts its whole orbit, matching what SizeStats.Trials
// accumulates.
func finish(ctx context.Context, spec Spec, total int, ws []worker, firstErr error) (*Result, error) {
	res := &Result{Sizes: make([]SizeStats, len(spec.Sizes))}
	done := 0
	for i, n := range spec.Sizes {
		res.Sizes[i].N = n
		for wi := range ws {
			res.Sizes[i].Merge(&ws[wi].shard[i])
		}
		done += res.Sizes[i].Trials
	}
	if firstErr != nil {
		return res, firstErr
	}
	// A context that fires after the final trial completed did not cost any
	// results; only report cancellation when work was actually skipped.
	if cerr := ctx.Err(); cerr != nil && done < total {
		return res, fmt.Errorf("sweep: cancelled with partial results (%d/%d trials): %w",
			done, total, cerr)
	}
	return res, nil
}

// MergeResults folds any number of partial Results — runs whose Spec.Done
// complements partition the trial space, a prefix plus a resumed run —
// into one. All inputs must agree on the
// size list (length and per-slot N); inputs covering disjoint trial sets
// merge to exactly the aggregate a single process computes over their
// union, in any argument order, because every fold is commutative and
// extremal ties resolve by trial index exactly like the in-process path.
// The inputs are not modified; the merged Result shares no mutable state
// with them.
func MergeResults(results ...*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("sweep: nothing to merge")
	}
	first := results[0]
	out := &Result{Sizes: make([]SizeStats, len(first.Sizes))}
	for i, s := range first.Sizes {
		out.Sizes[i].N = s.N
	}
	for k, r := range results {
		if len(r.Sizes) != len(first.Sizes) {
			return nil, fmt.Errorf("sweep: merge input %d has %d sizes, input 0 has %d", k, len(r.Sizes), len(first.Sizes))
		}
		for i := range r.Sizes {
			if r.Sizes[i].N != out.Sizes[i].N {
				return nil, fmt.Errorf("sweep: merge input %d size %d is n=%d, input 0 has n=%d",
					k, i, r.Sizes[i].N, out.Sizes[i].N)
			}
			out.Sizes[i].Merge(&r.Sizes[i])
		}
	}
	return out, nil
}
