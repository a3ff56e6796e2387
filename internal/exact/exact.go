// Package exact provides exhaustive-enumeration ground truth: the
// statistics of an algorithm's radius distribution over ALL n! identifier
// assignments of a small instance — the §2 worst-case average and the §4
// further-work expectation, computed exactly rather than sampled. It is the
// strongest validation layer of the reproduction: the analytic recurrence,
// the engine and the Monte-Carlo estimates must all agree with it.
//
// Enumeration runs through the sharded sweep engine (sweep.Spec.Exhaustive)
// — the same atlas, flat-kernel and streaming-aggregation substrate the
// Monte-Carlo sweeps use — so it works for any algorithm and graph family
// and parallelises across all cores with byte-identical results at any
// worker count. The pre-engine sequential Heap's-algorithm loop over the
// closed-form cycle radii is kept (CycleStatsSequential) as the independent
// cross-check and the benchmark baseline.
package exact

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/algorithms/largestid"
	"repro/internal/analytic"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/sweep"
)

// MaxEnumerationN bounds exact enumeration. For graph families declaring
// their automorphism group (graph.Automorphisms: cycle, torus, complete
// graph, complete b-ary tree) Distribution enumerates only canonical orbit
// representatives — n!/|G| executions instead of n!, a 2n× reduction on
// the cycle — which lifts the ceiling to 14: 14!/28 ≈ 3.1e9 representative
// executions, feasible under parallel enumeration on a multicore machine.
// There is no internal wall-clock guard beyond the cap — bound long runs
// with the context handed to Distribution.
const MaxEnumerationN = 14

// MaxFullEnumerationN bounds the full n!-fold path — families without a
// declared automorphism group, and runs pinning Options.NoQuotient: 12! ≈
// 4.8e8 executions. Beyond it only the quotient path is feasible, so
// larger instances without one fail with ErrTooLarge.
const MaxFullEnumerationN = 12

// ErrTooLarge marks instances beyond MaxEnumerationN. Callers distinguish
// it (errors.Is) from execution failures: "fall back to sampling" is the
// right response to ErrTooLarge only.
var ErrTooLarge = errors.New("exact: instance exceeds the enumeration cap")

// Algorithm instantiates the view algorithm for one enumerated assignment,
// matching sweep.Spec.Alg (assignment-dependent algorithms like
// Cole-Vishkin's ForMaxID need the assignment).
type Algorithm func(n int, a ids.Assignment) local.ViewAlgorithm

// Options tunes an enumeration run; the zero value uses all cores.
type Options struct {
	// Workers bounds the sweep worker pool (0 = GOMAXPROCS).
	Workers int
	// NoQuotient disables the symmetry-quotient fast path even for graphs
	// declaring automorphisms, forcing the full n! fold — the A/B baseline
	// the quotient's bit-identity is benchmarked and tested against. With
	// it set, n is capped at MaxFullEnumerationN. The quotient path is only
	// sound for automorphism-invariant algorithms (see graph.Automorphisms);
	// pin NoQuotient when enumerating a port-sensitive algorithm on a
	// symmetric family.
	NoQuotient bool
}

// PruningRadii computes the pruning algorithm's decision radii on a cycle
// directly from the assignment: a non-maximum vertex stops at its ring
// distance to the nearest strictly larger identifier; the maximum vertex
// needs the closure radius floor(n/2). This closed form is validated
// against the simulator in tests and lets sequential enumeration skip the
// engine.
func PruningRadii(a ids.Assignment) []int {
	n := len(a)
	radii := make([]int, n)
	if n == 0 {
		return radii
	}
	maxAt := a.ArgMax()
	for v := 0; v < n; v++ {
		if v == maxAt {
			radii[v] = n / 2
			continue
		}
		best := n
		for d := 1; d < n; d++ {
			right := (v + d) % n
			left := ((v-d)%n + n) % n
			if a[right] > a[v] || a[left] > a[v] {
				best = d
				break
			}
		}
		radii[v] = best
	}
	return radii
}

// Stats are exact statistics of an algorithm's radius distribution over
// every identifier permutation of one instance.
type Stats struct {
	N     int
	Perms int64
	// WorstSum is max over permutations of Σ r(v) — the paper's average
	// measure times n; for the pruning algorithm on a cycle it must equal
	// a(n-1) + floor(n/2).
	WorstSum int
	// BestSum is the minimum achievable radius sum.
	BestSum int
	// TotalSum is Σ over permutations of Σ r(v): the integer MeanSum
	// derives from.
	TotalSum int64
	// MeanSum is the expectation of the radius sum under a uniformly
	// random permutation (§4's further-work quantity, exactly). Always
	// TotalSum / Perms.
	MeanSum float64
	// Hist pools the radius histogram over every vertex of every
	// permutation: Hist[r] = #(vertex, permutation) pairs decided at
	// radius exactly r. Quantiles of it describe the distribution's shape
	// beyond the sum extremes.
	Hist []int64
}

// WorstAvg is the paper's average measure: WorstSum / n.
func (s Stats) WorstAvg() float64 { return float64(s.WorstSum) / float64(s.N) }

// BestAvg is the most favourable permutation's average radius.
func (s Stats) BestAvg() float64 { return float64(s.BestSum) / float64(s.N) }

// MeanAvg is the exact expected average radius.
func (s Stats) MeanAvg() float64 { return s.MeanSum / float64(s.N) }

// Quantile returns the q-quantile of the pooled per-vertex radius
// distribution, with the same interpolation as measure.Quantile.
func (s Stats) Quantile(q float64) float64 { return sweep.HistQuantile(s.Hist, q) }

// quotientEligible reports whether g declares an automorphism group the
// quotient path can exploit at its size.
func quotientEligible(g graph.Graph) bool {
	a, ok := g.(graph.Automorphisms)
	return ok && a.Automorphisms().Declares()
}

// Distribution enumerates every identifier permutation of g through the
// sharded sweep engine and returns the exact radius-sum statistics of alg
// over the full n! space. When g declares its automorphism group
// (graph.Automorphisms) and Options.NoQuotient is unset, the engine
// executes only the n!/|G| canonical orbit representatives and folds each
// with orbit weight — the returned Stats are bit-for-bit identical to the
// full fold, just 2n× (cycle) cheaper to compute. The enumeration reuses
// the engine's shared ball atlas and flat decision kernels, so it
// parallelises across all cores and the result is byte-identical at any
// worker count. n is capped at MaxEnumerationN on the quotient path and
// MaxFullEnumerationN on the full path (ErrTooLarge beyond); a cancelled
// context aborts with the sweep's partial-results error.
func Distribution(ctx context.Context, g graph.Graph, alg Algorithm, opt Options) (Stats, error) {
	n := g.N()
	if n < 1 {
		return Stats{}, fmt.Errorf("exact: empty graph")
	}
	quotient := quotientEligible(g) && !opt.NoQuotient
	if n > MaxEnumerationN {
		return Stats{}, fmt.Errorf("exact: n=%d beyond %d: %w", n, MaxEnumerationN, ErrTooLarge)
	}
	if !quotient && n > MaxFullEnumerationN {
		return Stats{}, fmt.Errorf("exact: n=%d beyond %d without a symmetry quotient: %w",
			n, MaxFullEnumerationN, ErrTooLarge)
	}
	res, err := sweep.Run(ctx, sweep.Spec{
		Sizes:      []int{n},
		Exhaustive: true,
		Quotient:   quotient,
		Workers:    opt.Workers,
		Graph:      func(int, *rand.Rand) (graph.Graph, error) { return g, nil },
		Alg:        alg,
	})
	if err != nil {
		return Stats{}, err
	}
	// A completed run covers all n! >= 1 permutations, so the mean is
	// never 0/0.
	s := res.Sizes[0]
	return Stats{
		N:        n,
		Perms:    int64(s.Trials),
		WorstSum: s.WorstAvg.Sum,
		BestSum:  s.BestAvg.Sum,
		TotalSum: s.TotalSum,
		MeanSum:  float64(s.TotalSum) / float64(s.Trials),
		Hist:     s.Hist,
	}, nil
}

// CycleStats enumerates the pruning algorithm over all n! permutations of
// an n-cycle through the engine AND cross-checks the result against the §2
// closed form: the worst sum must equal a(n-1) + floor(n/2) from the
// recurrence, or an error is returned. It is the flagship identity between
// the analytic, exact and engine layers.
func CycleStats(ctx context.Context, n int, opt Options) (Stats, error) {
	if n < 3 {
		return Stats{}, fmt.Errorf("exact: need n >= 3, got %d", n)
	}
	c, err := graph.NewCycle(n)
	if err != nil {
		return Stats{}, err
	}
	st, err := Distribution(ctx, c, func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} }, opt)
	if err != nil {
		return Stats{}, err
	}
	want, err := analytic.WorstCycleSum(n)
	if err != nil {
		return Stats{}, err
	}
	if int64(st.WorstSum) != want {
		return st, fmt.Errorf("exact: enumerated worst sum %d disagrees with recurrence %d at n=%d", st.WorstSum, want, n)
	}
	return st, nil
}

// CycleStatsSequential enumerates all n! permutations with Heap's algorithm
// on one core, folding the closed-form PruningRadii — no engine, no atlas,
// no sharding. It is the independent baseline CycleStats is validated (and
// benchmarked) against.
func CycleStatsSequential(n int) (Stats, error) {
	if n < 3 {
		return Stats{}, fmt.Errorf("exact: need n >= 3, got %d", n)
	}
	if n > MaxFullEnumerationN {
		return Stats{}, fmt.Errorf("exact: n=%d beyond %d: %w", n, MaxFullEnumerationN, ErrTooLarge)
	}
	perm := make(ids.Assignment, n)
	for i := range perm {
		perm[i] = i
	}
	st := Stats{N: n}
	var totalSum int64

	visit := func() {
		sum := 0
		for _, r := range PruningRadii(perm) {
			for len(st.Hist) <= r {
				st.Hist = append(st.Hist, 0)
			}
			st.Hist[r]++
			sum += r
		}
		// Extremes initialise from the first visit, so the -1 sentinels the
		// zero Stats used to carry can never leak into a result.
		if st.Perms == 0 || sum > st.WorstSum {
			st.WorstSum = sum
		}
		if st.Perms == 0 || sum < st.BestSum {
			st.BestSum = sum
		}
		totalSum += int64(sum)
		st.Perms++
	}

	// Heap's algorithm, iterative.
	c := make([]int, n)
	visit()
	i := 0
	for i < n {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			visit()
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
	st.TotalSum = totalSum
	st.MeanSum = float64(totalSum) / float64(st.Perms)
	return st, nil
}
