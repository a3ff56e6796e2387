package sweep

// This file is the EXECUTE layer: the worker pool that runs one plan's
// blocks. Workers own all per-trial scratch — the local.Runner, the
// histogram buffer, the reseedable rng, the permutation buffer — so
// steady-state blocks allocate nothing, and each worker folds its trials
// into a private shard of SizeStats that the MERGE layer combines at the
// end (finish, merge.go).

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
)

// worker is the per-worker reusable state: the execution scratch, the trial
// histogram buffer, the reseedable trial rng, the permutation buffer, and
// this shard's partial aggregates. Everything a trial needs is drawn from
// here, so steady-state batches allocate nothing.
type worker struct {
	runner *local.Runner
	hist   []int64
	shard  []SizeStats
	opts   []local.Option
	// rng is one reusable generator: each trial reseeds it with its
	// (size, trial)-derived seed, which reproduces a fresh
	// rand.New(rand.NewSource(seed)) bit for bit — including the Read
	// buffer, which Rand.Seed resets — without the two allocations per
	// trial.
	rng *rand.Rand
	// assign is the caller-owned permutation storage ids.RandomInto (or
	// ids.StreamInto) fills when Spec.Assign is unset.
	assign []int
	// impl is the worker's implicit-backend ball synthesizer, built lazily
	// and cached by graph identity (implG): consecutive blocks at the same
	// size reuse it, so its scratch skeleton survives across blocks exactly
	// like the runner's buffers. Nil outside the implicit backend.
	impl  *graph.ImplicitBalls
	implG graph.Graph
}

// execute runs the planned blocks across the worker pool and merges the
// worker shards into the final Result. quotients (non-nil only under
// Spec.Quotient) hold each size's canonical ranker. total is the planned
// WEIGHTED trial count (after the Done carve-out) used for
// cancellation accounting.
func execute(ctx context.Context, spec Spec, graphs []graph.Graph, atlases []*graph.BallAtlas, quotients []*ids.Quotient, blocks []Block, total, workers int) (*Result, error) {
	// The sequential path needs no cancel broadcast — its loop checks
	// firstErr directly — so it skips the WithCancel context entirely.
	runCtx, cancel := ctx, func() {}
	if workers > 1 {
		runCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	// The worker's permutation buffer is sized for the largest instance up
	// front, so batches at growing sizes never regrow it.
	maxN := 0
	for _, g := range graphs {
		if n := g.N(); n > maxN {
			maxN = n
		}
	}

	// All workers share one option slice (read-only), one backing array for
	// their per-size shards, and one worker array: worker setup cost stays a
	// handful of allocations per worker, not a dozen.
	opts := append(make([]local.Option, 0, 4), local.WithContext(runCtx))
	if spec.MaxRadius > 0 {
		opts = append(opts, local.WithMaxRadius(spec.MaxRadius))
	}
	if spec.NoKernels {
		opts = append(opts, local.WithoutKernels())
	}
	if spec.Assign == nil {
		// Workers draw their own permutations with ids.RandomInto — valid
		// by construction, so the engine's per-trial Validate is redundant.
		opts = append(opts, local.WithValidatedIDs())
	}
	ws := make([]worker, workers)
	shardBacking := make([]SizeStats, workers*len(spec.Sizes))
	for wi := range ws {
		initWorker(&ws[wi], spec, opts, shardBacking[wi*len(spec.Sizes):(wi+1)*len(spec.Sizes)], maxN)
	}

	if workers == 1 {
		// True sequential path: no goroutines, no channels — the baseline
		// the sharded path is benchmarked against, and the cheapest way to
		// run tiny sweeps.
		w := &ws[0]
		for _, b := range blocks {
			if runCtx.Err() != nil {
				break
			}
			if err := w.runBlock(runCtx, spec, graphs[b.SizeIdx], atlases[b.SizeIdx], quotientAt(quotients, b.SizeIdx), b); err != nil {
				if runCtx.Err() == nil {
					fail(err)
				}
				break
			}
			if firstErr != nil {
				break
			}
		}
		return finish(ctx, spec, total, ws, firstErr)
	}

	blockCh := make(chan Block)
	go func() {
		defer close(blockCh)
		for _, b := range blocks {
			select {
			case blockCh <- b:
			case <-runCtx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		w := &ws[wi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range blockCh {
				if runCtx.Err() != nil {
					return
				}
				if err := w.runBlock(runCtx, spec, graphs[b.SizeIdx], atlases[b.SizeIdx], quotientAt(quotients, b.SizeIdx), b); err != nil {
					if runCtx.Err() == nil {
						fail(err)
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	err := firstErr
	mu.Unlock()
	return finish(ctx, spec, total, ws, err)
}

// initWorker populates one worker's reusable state. opts is shared
// (read-only) across workers; shard is the worker's slice of the shared
// backing array; maxN is the largest instance size the worker may draw
// permutations for.
func initWorker(w *worker, spec Spec, opts []local.Option, shard []SizeStats, maxN int) {
	w.runner = local.NewRunner()
	w.shard = shard
	w.opts = opts
	w.rng = rand.New(rand.NewSource(0)) // reseeded per trial from (size, trial)
	if spec.Assign == nil {
		w.assign = make([]int, maxN)
	}
}

// quotientAt returns the size's canonical ranker, or nil outside the
// quotient path.
func quotientAt(quotients []*ids.Quotient, i int) *ids.Quotient {
	if quotients == nil {
		return nil
	}
	return quotients[i]
}

// runBlock executes one contiguous block of trials at a single size and
// folds each into the worker's shard. Batching is what amortises the
// per-trial harness overhead: the atlas is attached once, the histogram
// buffer is cleared once, the trial rng is reseeded instead of reallocated,
// and (when the spec draws its own permutations) one worker-owned buffer is
// refilled in place by ids.RandomInto. atlas (nil when disabled) is the
// size's shared ball store; q (nil outside Spec.Quotient) is the size's
// canonical ranker. A context cancellation mid-block returns nil; the
// caller observes the context itself.
//
// Under a quotient the block is a contiguous range of CANONICAL ranks, but
// every fold uses the representative's FULL lexicographic rank as its
// trial index: orbit members share their radius multiset, the extremal
// achiever set is orbit-closed, and the lowest-full-rank achiever of any
// extremum is canonical — so weighted folds reproduce the full
// enumeration's aggregate, including tie-broken extremal trial indices,
// bit for bit.
//
// When Spec.OnBlock is set the block's trials fold into a block-local
// aggregate first, which is merged into the shard and — only if the block
// ran to completion — handed to the hook. The hot path (OnBlock nil) folds
// straight into the shard exactly as before the plan/execute split.
func (w *worker) runBlock(ctx context.Context, spec Spec, g graph.Graph, atlas *graph.BallAtlas, q *ids.Quotient, b Block) error {
	if spec.Backend == BackendImplicit {
		// Run validated every graph as a comparable graph.Implicit, so the
		// assertion and the identity comparison are both safe here.
		if w.implG != g {
			w.impl = graph.NewImplicitBalls(g.(graph.Implicit))
			w.implG = g
		}
		w.runner.SetSource(w.impl)
	} else {
		w.runner.SetAtlas(atlas)
	}
	n := g.N()
	if spec.Assign == nil && cap(w.assign) < n {
		w.assign = make([]int, n)
	}
	// The hot path folds trials straight into the worker's shard. Only a
	// sweep observing blocks (OnBlock set) pays for a block-local aggregate —
	// kept behind a pointer so the common case allocates nothing per block.
	dst := &w.shard[b.SizeIdx]
	var blockStats *SizeStats
	if spec.OnBlock != nil {
		blockStats = &SizeStats{N: n}
		dst = blockStats
	}
	// One clear per batch establishes the all-zeros invariant; each trial
	// restores it below by zeroing only the entries it incremented.
	for r := range w.hist {
		w.hist[r] = 0
	}
	weight := 1
	fullRank := 0
	if spec.Exhaustive {
		if q != nil {
			// The block is a contiguous CANONICAL rank range: unrank its
			// first representative, recover its full lexicographic rank
			// once (O(n²)), then track the rank incrementally from the
			// walk's step counts.
			weight = int(q.Order())
			if _, err := q.CanonicalUnrankInto(w.assign[:n], uint64(b.T0)); err != nil {
				return fmt.Errorf("sweep: size %d canonical rank %d: %w", n, b.T0, err)
			}
			fr, err := ids.Assignment(w.assign[:n]).Rank()
			if err != nil {
				return fmt.Errorf("sweep: size %d canonical rank %d: %w", n, b.T0, err)
			}
			fullRank = int(fr)
		} else {
			// The block is a contiguous rank range: unrank its first
			// permutation once, then each later trial is one successor step.
			ids.UnrankInto(w.assign[:n], uint64(b.T0))
		}
	}
	for trial := b.T0; trial < b.T1; trial++ {
		if ctx.Err() != nil {
			w.flushBlock(b, blockStats)
			return nil
		}
		var (
			a   ids.Assignment
			err error
		)
		switch {
		case spec.Exhaustive:
			// No per-trial randomness: the permutation IS the trial
			// coordinate, so the (expensive) rng reseed is skipped too.
			if trial > b.T0 {
				if q != nil {
					steps, ok := q.NextCanonicalInto(w.assign[:n])
					if !ok {
						w.flushBlock(b, blockStats)
						return fmt.Errorf("sweep: size %d: canonical walk ended before rank %d", n, trial)
					}
					fullRank += int(steps)
				} else {
					ids.NextInto(w.assign[:n])
				}
			}
			a = ids.Assignment(w.assign[:n])
		case spec.Assign != nil:
			w.rng.Seed(trialSeed(spec.Seed, b.SizeIdx, trial))
			a, err = spec.Assign(b.SizeIdx, n, trial, w.rng)
			if err != nil {
				w.flushBlock(b, blockStats)
				return fmt.Errorf("sweep: assign size %d trial %d: %w", n, trial, err)
			}
		case spec.StreamIDs:
			// The streaming draw needs no rng at all: the Feistel keys
			// derive from the same (size, trial) seed coordinates.
			a = ids.StreamInto(w.assign[:n], uint64(trialSeed(spec.Seed, b.SizeIdx, trial)))
		default:
			w.rng.Seed(trialSeed(spec.Seed, b.SizeIdx, trial))
			a = ids.RandomInto(w.assign[:n], w.rng)
		}
		res, err := w.runner.Run(g, a, spec.Alg(n, a), w.opts...)
		if err != nil {
			w.flushBlock(b, blockStats)
			return err
		}

		// Fill the trial's histogram in one pass over the radii, growing
		// the buffer and tracking the maximum as we go — no separate scan,
		// no full reset between trials.
		maxR := 0
		for _, r := range res.Radii {
			if r >= len(w.hist) {
				w.hist = growHist(w.hist, r+1)
			}
			w.hist[r]++
			if r > maxR {
				maxR = r
			}
		}
		hist := w.hist[:maxR+1]
		sum := summarizeHist(hist)
		if err := dst.checkFoldWeighted(maxR, sum, hist, weight); err != nil {
			w.flushBlock(b, blockStats)
			return fmt.Errorf("sweep: fold size %d trial %d: %w", n, trial, err)
		}

		verifyFailed := false
		if spec.Verify != nil {
			if verr := spec.Verify(g, a, res); verr != nil {
				if spec.Strict {
					w.flushBlock(b, blockStats)
					return fmt.Errorf("sweep: verify size %d trial %d: %w", n, trial, verr)
				}
				verifyFailed = true
			}
		}
		if spec.Observe != nil {
			spec.Observe(b.SizeIdx, trial, g, a, res)
		}
		// Under a quotient the fold's trial index is the representative's
		// full lexicographic rank — the coordinate full enumeration would
		// have used — so extremal tie-breaking stays orbit-stable.
		foldTrial := trial
		if q != nil {
			foldTrial = fullRank
		}
		dst.addTrialWeighted(foldTrial, sum, hist, verifyFailed, weight)
		for _, r := range res.Radii {
			hist[r] = 0
		}
	}
	if blockStats != nil {
		w.shard[b.SizeIdx].Merge(blockStats)
		spec.OnBlock(b, blockStats)
	}
	return nil
}

// flushBlock folds a block-local aggregate back into the shard on early
// exits (cancellation, errors), so a block's completed trials still
// surface in the partial Result. The block is NOT reported to OnBlock —
// it did not complete — so a resume re-executes it. No-op on the hot path
// (nil blockStats).
func (w *worker) flushBlock(b Block, blockStats *SizeStats) {
	if blockStats != nil && blockStats.Trials > 0 {
		w.shard[b.SizeIdx].Merge(blockStats)
	}
}
