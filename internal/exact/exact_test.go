package exact

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algorithms/coloring"
	"repro/internal/algorithms/largestid"
	"repro/internal/algorithms/mis"
	"repro/internal/analytic"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
)

// TestPruningRadiiMatchEngine pins the closed form to the simulator: both
// must agree on every vertex of random instances.
func TestPruningRadiiMatchEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, n := range []int{3, 4, 5, 9, 16, 33, 64} {
		c := graph.MustCycle(n)
		for trial := 0; trial < 4; trial++ {
			a := ids.Random(n, rng)
			res, err := local.RunView(c, a, largestid.Pruning{})
			if err != nil {
				t.Fatalf("RunView: %v", err)
			}
			closed := PruningRadii(a)
			for v := 0; v < n; v++ {
				if closed[v] != res.Radii[v] {
					t.Fatalf("n=%d vertex %d: closed form %d, engine %d",
						n, v, closed[v], res.Radii[v])
				}
			}
		}
	}
}

// TestCycleStatsWorstMatchesRecurrence is the flagship exact validation:
// the enumerated maximum over ALL permutations equals the recurrence
// prediction a(n-1) + floor(n/2) — no sampling, no reconstruction, the
// whole space. CycleStats performs the check internally; this asserts it
// and the permutation count through both the engine and the sequential
// baseline.
func TestCycleStatsWorstMatchesRecurrence(t *testing.T) {
	for n := 3; n <= 8; n++ {
		st, err := CycleStats(context.Background(), n, Options{})
		if err != nil {
			t.Fatalf("CycleStats(%d): %v", n, err)
		}
		want, err := analytic.WorstCycleSum(n)
		if err != nil {
			t.Fatal(err)
		}
		if int64(st.WorstSum) != want {
			t.Errorf("n=%d: enumerated worst sum %d, recurrence %d", n, st.WorstSum, want)
		}
		wantPerms, err := ids.Factorial(n)
		if err != nil {
			t.Fatal(err)
		}
		if st.Perms != int64(wantPerms) {
			t.Errorf("n=%d: visited %d permutations, want %d", n, st.Perms, wantPerms)
		}
	}
}

// TestDistributionMatchesClosedFormFold is the engine-vs-closed-form
// property: for every 3 <= n <= 8 (and n=10 when not -short) the
// engine-computed exact distribution — extremes, mean, pooled histogram —
// equals the sequential Heap's-algorithm fold of PruningRadii, at several
// worker counts.
func TestDistributionMatchesClosedFormFold(t *testing.T) {
	sizes := []int{3, 4, 5, 6, 7, 8}
	if !testing.Short() {
		sizes = append(sizes, 9, 10)
	}
	for _, n := range sizes {
		want, err := CycleStatsSequential(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := CycleStats(context.Background(), n, Options{Workers: workers})
			if err != nil {
				t.Fatalf("CycleStats(%d, workers=%d): %v", n, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d workers=%d: engine distribution diverges from closed-form fold\ngot:  %+v\nwant: %+v",
					n, workers, got, want)
			}
		}
	}
}

// TestCycleStatsBestSum: the best case puts every non-maximum next to a
// larger identifier: sum = (n-1) + floor(n/2).
func TestCycleStatsBestSum(t *testing.T) {
	for n := 3; n <= 8; n++ {
		st, err := CycleStats(context.Background(), n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := (n - 1) + n/2
		if st.BestSum != want {
			t.Errorf("n=%d: best sum %d, want %d", n, st.BestSum, want)
		}
	}
}

// TestCycleStatsMeanBounds: the exact expectation sits strictly between
// the best and worst cases and the average orderings are consistent.
func TestCycleStatsMeanBounds(t *testing.T) {
	st, err := CycleStats(context.Background(), 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanSum <= float64(st.BestSum) || st.MeanSum >= float64(st.WorstSum) {
		t.Errorf("mean %v outside (best %d, worst %d)", st.MeanSum, st.BestSum, st.WorstSum)
	}
	if st.MeanAvg() >= st.WorstAvg() {
		t.Errorf("MeanAvg %v >= WorstAvg %v", st.MeanAvg(), st.WorstAvg())
	}
	if st.BestAvg() >= st.MeanAvg() {
		t.Errorf("BestAvg %v >= MeanAvg %v", st.BestAvg(), st.MeanAvg())
	}
	if med, p90 := st.Quantile(0.5), st.Quantile(0.9); med > p90 {
		t.Errorf("median %v above p90 %v", med, p90)
	}
}

// TestCycleStatsMatchesMonteCarlo cross-checks the exact expectation
// against a direct sample mean.
func TestCycleStatsMatchesMonteCarlo(t *testing.T) {
	const n = 7
	st, err := CycleStats(context.Background(), n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	const samples = 20000
	total := 0
	for i := 0; i < samples; i++ {
		for _, r := range PruningRadii(ids.Random(n, rng)) {
			total += r
		}
	}
	mc := float64(total) / samples
	if diff := mc - st.MeanSum; diff > 0.15 || diff < -0.15 {
		t.Errorf("Monte Carlo mean %v far from exact %v", mc, st.MeanSum)
	}
}

// TestDistributionOtherAlgorithms exercises the generic API beyond pruning
// cycles: FullView on a path, uniform ring colouring, and colouring-derived
// MIS all enumerate cleanly, and constant-radius algorithms report
// degenerate (worst == best) distributions.
func TestDistributionOtherAlgorithms(t *testing.T) {
	ctx := context.Background()
	path, err := graph.NewPath(5)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := Distribution(ctx, path, func(int, ids.Assignment) local.ViewAlgorithm { return largestid.FullView{} }, Options{})
	if err != nil {
		t.Fatalf("FullView on path: %v", err)
	}
	// FullView always grows to the whole graph: the radius vector is
	// permutation-independent, so the sum distribution is a point mass.
	if fv.WorstSum != fv.BestSum {
		t.Errorf("FullView sums vary: worst %d, best %d", fv.WorstSum, fv.BestSum)
	}

	c := graph.MustCycle(6)
	uni, err := Distribution(ctx, c, func(int, ids.Assignment) local.ViewAlgorithm { return coloring.Uniform{} }, Options{})
	if err != nil {
		t.Fatalf("Uniform on cycle: %v", err)
	}
	if uni.Perms != 720 || uni.WorstSum < uni.BestSum {
		t.Errorf("Uniform stats inconsistent: %+v", uni)
	}

	// ForMaxID-derived coloring consumes the ring orientation, so it is not
	// invariant under the cycle's reflection: the quotient path must stay
	// off for it (see graph.Automorphisms).
	m, err := Distribution(ctx, c, func(_ int, a ids.Assignment) local.ViewAlgorithm {
		return mis.FromColoring{Base: coloring.ForMaxID(a.MaxID())}
	}, Options{Workers: 4, NoQuotient: true})
	if err != nil {
		t.Fatalf("MIS on cycle: %v", err)
	}
	if m.Perms != 720 || m.MeanSum < float64(m.BestSum) || m.MeanSum > float64(m.WorstSum) {
		t.Errorf("MIS stats inconsistent: %+v", m)
	}
}

func TestCycleStatsErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := CycleStats(ctx, 2, Options{}); err != nil {
		if errors.Is(err, ErrTooLarge) {
			t.Error("n=2 misreported as too large")
		}
	} else {
		t.Error("n=2 accepted")
	}
	if _, err := CycleStats(ctx, MaxEnumerationN+1, Options{}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized n: err = %v, want ErrTooLarge", err)
	}
	if _, err := CycleStatsSequential(MaxEnumerationN + 1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("sequential oversized n: err = %v, want ErrTooLarge", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := CycleStats(cancelled, 7, Options{}); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestPruningRadiiEmpty(t *testing.T) {
	if got := PruningRadii(nil); len(got) != 0 {
		t.Errorf("empty assignment produced radii %v", got)
	}
}

// TestDistributionQuotientBitIdentical: for families declaring their
// automorphism group, the auto-routed quotient enumeration returns Stats
// bit-for-bit identical to the pinned full n! fold — every field,
// including the pooled histogram and the float MeanSum.
func TestDistributionQuotientBitIdentical(t *testing.T) {
	alg := func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} }
	for _, g := range []graph.Graph{
		graph.MustCycle(7),
		graph.MustTorus(3, 3),
		graph.MustCompleteGraph(6),
		graph.MustImplicitTree(2, 2),
	} {
		quot, err := Distribution(context.Background(), g, alg, Options{Workers: 4})
		if err != nil {
			t.Fatalf("%T quotient: %v", g, err)
		}
		full, err := Distribution(context.Background(), g, alg, Options{Workers: 4, NoQuotient: true})
		if err != nil {
			t.Fatalf("%T full: %v", g, err)
		}
		if !reflect.DeepEqual(quot, full) {
			t.Errorf("%T: quotient stats diverge from full fold\nquotient: %+v\nfull:     %+v", g, quot, full)
		}
		f, _ := ids.Factorial(g.N())
		if uint64(quot.Perms) != f {
			t.Errorf("%T: quotient Perms = %d, want %d! = %d", g, quot.Perms, g.N(), f)
		}
	}
}

// TestDistributionEnumerationCaps pins the two ceilings: the full fold
// stops at MaxFullEnumerationN (no-symmetry families and NoQuotient runs),
// the quotient path carries symmetric families to MaxEnumerationN. A
// cancelled context shows a beyond-full-cap cycle passing the cap checks
// and reaching the engine without enumerating it.
func TestDistributionEnumerationCaps(t *testing.T) {
	ctx := context.Background()
	alg := func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} }
	over := MaxFullEnumerationN + 1

	gnp, err := graph.NewGNP(over, 0.5, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Distribution(ctx, gnp, alg, Options{}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("GNP n=%d: err = %v, want ErrTooLarge", over, err)
	}
	c := graph.MustCycle(over)
	if _, err := Distribution(ctx, c, alg, Options{NoQuotient: true}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("NoQuotient cycle n=%d: err = %v, want ErrTooLarge", over, err)
	}
	if _, err := Distribution(ctx, graph.MustCycle(MaxEnumerationN+1), alg, Options{}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("cycle n=%d: err = %v, want ErrTooLarge", MaxEnumerationN+1, err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Distribution(cancelled, c, alg, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("quotient cycle n=%d: err = %v, want the engine's cancellation", over, err)
	}
}
