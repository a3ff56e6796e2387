package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/algorithms/largestid"
	"repro/internal/analytic"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/sweep"
)

// e10Cap is the largest feasible enumeration size under the config: the
// symmetry quotient (Config.Quotient) executes only n!/2n canonical
// representatives on the cycle, lifting the ceiling from
// exact.MaxFullEnumerationN to exact.MaxEnumerationN.
func e10Cap(cfg Config) int {
	if cfg.Quotient {
		return exact.MaxEnumerationN
	}
	return exact.MaxFullEnumerationN
}

// e10Sizes resolves the experiment's size sweep: enumeration is n!-bounded
// (n!/2n under -quotient), so oversized overrides keep only their feasible
// entries and fall back to the defaults when none fit. Shared by Sweeps and
// Tabulate so the clamped note renders identically in every process.
func e10Sizes(cfg Config) (sizes []int, clamped bool) {
	defSizes := []int{5, 6, 7, 8, 9}
	cap := e10Cap(cfg)
	sizes = make([]int, 0, len(cfg.Sizes))
	for _, n := range cfg.Sizes {
		if n >= 3 && n <= cap {
			sizes = append(sizes, n)
		} else {
			clamped = true
		}
	}
	if len(sizes) == 0 {
		sizes, clamped = defSizes, clamped && len(cfg.Sizes) > 0
	}
	return sizes, clamped
}

// e10 closes the validation ladder: the EXACT ground truth — every one of
// the n! identifier permutations, enumerated as rank blocks of the sweep
// engine — against the Monte-Carlo estimates the large-n experiments rely
// on. The exact side is cross-checked against the §2 recurrence during
// tabulation, so one table ties all three layers (analytic, exact, sampled)
// together: the sampled worst can only fall below the true worst
// (worstGap >= 0, a hard identity), and the sampled mean must land within
// sampling error of the true §4 expectation. Both sides are plain engine
// sweeps, so E10 shards across processes like every other
// Sweeps/Tabulate experiment — including the n! enumeration.
func e10() Experiment {
	return Experiment{
		ID:    "E10",
		Title: "Exact enumeration vs Monte-Carlo sampling: ground-truth agreement",
		Claim: "§2 worst case and §4 expectation over ALL n! permutations, exactly",
		Sweeps: func(cfg Config) ([]sweep.Spec, error) {
			sizes, _ := e10Sizes(cfg)
			cycle := func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCycle(n) }
			pruning := func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} }

			// Sweep 0: exhaustive engine enumeration — the n! rank space
			// splits into the same contiguous blocks sampled trials use, so
			// it shards and leases like any other sweep.
			ex := sweep.Spec{
				Seed:       cfg.Seed,
				Sizes:      sizes,
				Exhaustive: true,
				Graph:      cycle,
				Alg:        pruning,
			}
			// Sweep 1: the standard Monte-Carlo sweep.
			mc := sweep.Spec{
				Seed:   cfg.Seed,
				Sizes:  sizes,
				Trials: trialsOrDefault(cfg, 2000),
				Graph:  cycle,
				Alg:    pruning,
				Verify: verifyLargestID,
			}
			return []sweep.Spec{ex, mc}, nil
		},
		Tabulate: func(cfg Config, results []*sweep.Result) (*Table, error) {
			exRes, mcRes := results[0], results[1]
			_, clamped := e10Sizes(cfg)
			trials := trialsOrDefault(cfg, 2000)

			t := &Table{
				Title: fmt.Sprintf("E10: exact (all n! permutations) vs sampled (%d permutations)", trials),
				Columns: []string{"n", "perms", "sampled/n!", "exWorstAvg", "mcWorstAvg", "worstGap",
					"exMeanAvg", "mcMeanAvg", "meanErr", "exP90", "mcP90"},
			}
			worstOK := true
			for i := range exRes.Sizes {
				ex, mc := exRes.Sizes[i], mcRes.Sizes[i]
				n := ex.N
				// The §2 identity: the enumerated worst sum over ALL
				// permutations must equal the recurrence a(n-1)+floor(n/2).
				want, err := analytic.WorstCycleSum(n)
				if err != nil {
					return nil, err
				}
				if int64(ex.WorstAvg.Sum) != want {
					return nil, fmt.Errorf("E10: enumerated worst sum %d disagrees with recurrence %d at n=%d",
						ex.WorstAvg.Sum, want, n)
				}
				exWorstAvg := float64(ex.WorstAvg.Sum) / float64(n)
				worstGap := exWorstAvg - mc.WorstAvg.Avg
				if worstGap < 0 {
					worstOK = false
				}
				t.AddRow(ci(n), ci(ex.Trials), cf(float64(trials)/float64(ex.Trials)),
					cf(exWorstAvg), cf(mc.WorstAvg.Avg), cf(worstGap),
					cf(ex.MeanAvg()), cf(mc.MeanAvg()), cf(mc.MeanAvg()-ex.MeanAvg()),
					cf(ex.Quantile(0.9)), cf(mc.Quantile(0.9)))
			}
			t.AddNote("exact worst sums equal the recurrence a(n-1)+floor(n/2) at every size (cross-checked during tabulation)")
			t.AddNote("worstGap = exact - sampled worst average; sampling (with replacement, sampled/n! is a ratio not a coverage) can only miss the worst, so it must never be negative")
			t.AddNote("meanErr is the sampling error of the §4 expectation, O(1/sqrt(trials)) by the CLT")
			if clamped {
				t.AddNote("sizes beyond the enumeration cap n=%d were dropped: n! enumeration is the point of this table (-quotient lifts the cap to %d)",
					e10Cap(cfg), exact.MaxEnumerationN)
			}
			if !worstOK {
				return t, fmt.Errorf("E10: a sampled worst exceeded the exact worst — enumeration or engine is broken")
			}
			return t, nil
		},
	}
}
