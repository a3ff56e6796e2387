package sweep

import (
	"fmt"
	"math"

	"repro/internal/ids"
)

// This file is the PLAN layer of the engine: the serializable description
// of what a sweep executes — seed, sizes, trial space — and the
// deterministic chunking of that space into contiguous blocks. Plans
// carry none of the Spec's functions (Graph, Alg, ...); they are the part
// of a sweep that can cross a process boundary, be compared for a resume,
// or anchor a lease run in a store. The EXECUTE layer (execute.go) runs the
// planned blocks through the worker pool; the MERGE layer (merge.go,
// codec.go) folds the partial aggregates back together.

// Shard selects the contiguous slice Index (0-based) of Count of every
// size's trial space: sampled trial indices and exhaustive permutation
// ranks partition identically, so m slices cover each (size, trial)
// coordinate exactly once. It names one executor's part of a static lease
// schedule (LeaseOptions.Static). The zero value selects everything.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// IsZero reports the unsharded zero value.
func (s Shard) IsZero() bool { return s == Shard{} }

// validate accepts the zero value or 0 <= Index < Count.
func (s Shard) validate() error {
	if s.IsZero() {
		return nil
	}
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("sweep: invalid shard %d/%d: need 0 <= index < count", s.Index, s.Count)
	}
	return nil
}

// Range returns the half-open trial subrange [lo, hi) of a size with total
// trials owned by this shard: contiguous, nearly equal, with the remainder
// spread over the lowest shard indices. The zero-value shard owns [0, total).
func (s Shard) Range(total int) (lo, hi int) {
	if s.IsZero() {
		return 0, total
	}
	base, rem := total/s.Count, total%s.Count
	lo = s.Index*base + min(s.Index, rem)
	hi = lo + base
	if s.Index < rem {
		hi++
	}
	return lo, hi
}

// TrialRange is a half-open range [T0, T1) of trial indices (or, under
// Exhaustive, permutation ranks) at one size — the unit Spec.Done and lease
// coverage record completed work in.
type TrialRange struct {
	T0 int `json:"t0"`
	T1 int `json:"t1"`
}

// Block is one schedulable unit of a plan: a contiguous trial range at one
// size index. Blocks are what workers execute, what Spec.OnBlock observes,
// and what lease completion records mark as done.
type Block struct {
	SizeIdx int `json:"size"`
	T0      int `json:"t0"`
	T1      int `json:"t1"`
}

// Plan is the serializable coordinate description of one sweep. Two
// processes holding equal Plans (and equivalent Spec functions) address
// the same trial space with the same per-trial seeds, so a Plan is the
// identity a lease run validates against before merging.
type Plan struct {
	Seed int64 `json:"seed"`
	// Sizes is the n sweep, in Spec order.
	Sizes []int `json:"sizes"`
	// Trials is the sampled-permutation count per size; 0 under Exhaustive.
	Trials int `json:"trials,omitempty"`
	// Exhaustive marks full n! rank enumeration instead of sampling.
	Exhaustive bool `json:"exhaustive,omitempty"`
	// Quotient marks symmetry-quotient enumeration: the trial space is the
	// canonical-representative rank space (n!/Orders[i] per size) and every
	// executed trial folds with weight Orders[i]. Only valid with
	// Exhaustive.
	Quotient bool `json:"quotient,omitempty"`
	// Orders holds, per size, the declared automorphism group order — the
	// uniform orbit size and hence the fold weight — when Quotient is set.
	// It is part of the plan's identity: two quotient plans tile the same
	// trial space only if they quotient by the same groups.
	Orders []uint64 `json:"orders,omitempty"`
}

// PlanOf derives the plan a Spec executes, normalising the trial count the
// way Run does (unset sampled Trials means 1; Exhaustive pins it to 0).
// Under Quotient it builds the spec's graphs (the same seeded construction
// Run performs) to record each size's declared group order, so deriving a
// quotient plan can fail the way Run would.
func PlanOf(spec Spec) (Plan, error) {
	trials := spec.Trials
	if trials <= 0 {
		trials = 1
	}
	if spec.Exhaustive {
		trials = 0
	}
	p := Plan{
		Seed:       spec.Seed,
		Sizes:      append([]int(nil), spec.Sizes...),
		Trials:     trials,
		Exhaustive: spec.Exhaustive,
		Quotient:   spec.Quotient,
	}
	if spec.Quotient {
		graphs, err := buildGraphs(spec)
		if err != nil {
			return Plan{}, err
		}
		qs, err := quotientsFor(graphs)
		if err != nil {
			return Plan{}, err
		}
		p.Orders = make([]uint64, len(qs))
		for i, q := range qs {
			p.Orders[i] = q.Order()
		}
	}
	return p, nil
}

// Counts returns the per-size GLOBAL trial counts the plan's coordinates
// range over: the sampled count everywhere, the full n! rank space under
// Exhaustive, or the n!/Orders[i] canonical rank space under Quotient.
// This is the space Done lists and lease schedules are carved out of.
func (p Plan) Counts() ([]int, error) {
	trials := p.Trials
	if trials <= 0 {
		trials = 1
	}
	counts := make([]int, len(p.Sizes))
	for i, n := range p.Sizes {
		counts[i] = trials
		if p.Exhaustive {
			f, err := ids.Factorial(n)
			if err != nil {
				return nil, fmt.Errorf("sweep: exhaustive size %d: %w", n, err)
			}
			if p.Quotient {
				if i >= len(p.Orders) || p.Orders[i] == 0 || f%p.Orders[i] != 0 {
					return nil, fmt.Errorf("sweep: quotient plan carries no valid group order for size %d", n)
				}
				f /= p.Orders[i]
			}
			if f > math.MaxInt {
				return nil, fmt.Errorf("sweep: exhaustive trial count %d overflows int at size %d", f, n)
			}
			counts[i] = int(f)
		}
	}
	return counts, nil
}

// Weight returns the fold weight of one executed trial at size index i:
// the orbit size Orders[i] under Quotient, 1 otherwise. Call Counts first
// on untrusted plans — it validates that Orders aligns with Sizes.
func (p Plan) Weight(i int) int {
	if !p.Quotient {
		return 1
	}
	return int(p.Orders[i])
}

// Equal reports whether two plans describe the same work.
func (p Plan) Equal(o Plan) bool {
	if p.Seed != o.Seed || p.Trials != o.Trials || p.Exhaustive != o.Exhaustive ||
		p.Quotient != o.Quotient ||
		len(p.Sizes) != len(o.Sizes) || len(p.Orders) != len(o.Orders) {
		return false
	}
	for i, n := range p.Sizes {
		if o.Sizes[i] != n {
			return false
		}
	}
	for i, w := range p.Orders {
		if o.Orders[i] != w {
			return false
		}
	}
	return true
}

// validateDone checks a Spec.Done resume list against the per-size global
// trial counts: ranges must be ascending, non-overlapping, and inside
// [0, count). An empty list (or a nil inner slice) is always valid.
func validateDone(done [][]TrialRange, counts []int) error {
	if len(done) == 0 {
		return nil
	}
	if len(done) != len(counts) {
		return fmt.Errorf("sweep: Done has %d size entries, spec has %d sizes", len(done), len(counts))
	}
	for i, ranges := range done {
		prev := 0
		for k, r := range ranges {
			if r.T0 < 0 || r.T1 > counts[i] || r.T0 >= r.T1 {
				return fmt.Errorf("sweep: Done size %d range [%d,%d) outside [0,%d)", i, r.T0, r.T1, counts[i])
			}
			if k > 0 && r.T0 < prev {
				return fmt.Errorf("sweep: Done size %d ranges out of order or overlapping at [%d,%d)", i, r.T0, r.T1)
			}
			prev = r.T1
		}
	}
	return nil
}

// subtractRanges returns the ascending complement of done within [lo, hi).
// done must be ascending and non-overlapping (validateDone enforces it).
func subtractRanges(lo, hi int, done []TrialRange) []TrialRange {
	var out []TrialRange
	cur := lo
	for _, d := range done {
		if d.T1 <= cur {
			continue
		}
		if d.T0 >= hi {
			break
		}
		if d.T0 > cur {
			out = append(out, TrialRange{T0: cur, T1: min(d.T0, hi)})
		}
		if d.T1 > cur {
			cur = d.T1
		}
		if cur >= hi {
			return out
		}
	}
	if cur < hi {
		out = append(out, TrialRange{T0: cur, T1: hi})
	}
	return out
}

// planBlocks chunks every size's runnable trial ranges — the global space
// minus the Done ranges — into worker-pool blocks.
// order lists size indices largest instance first (the buffer-growth
// heuristic of the execute layer); within a size, blocks stay in ascending
// trial order. A few blocks per worker balances load without serialising
// on the job channel, exactly like the pre-split engine's chunking.
func planBlocks(order, counts []int, done [][]TrialRange, workers int) []Block {
	blocks := make([]Block, 0, len(counts)*(4*workers+1))
	// The common case — no resume — runs one whole range per size; a
	// stack-backed singleton keeps that path allocation-free.
	var whole [1]TrialRange
	for _, i := range order {
		whole[0] = TrialRange{T0: 0, T1: counts[i]}
		runnable := whole[:]
		if len(done) > 0 {
			runnable = subtractRanges(0, counts[i], done[i])
		}
		planned := 0
		for _, r := range runnable {
			planned += r.T1 - r.T0
		}
		chunk := planned / (workers * 4)
		if chunk < 1 {
			chunk = 1
		}
		for _, r := range runnable {
			for t0 := r.T0; t0 < r.T1; t0 += chunk {
				t1 := t0 + chunk
				if t1 > r.T1 {
					t1 = r.T1
				}
				blocks = append(blocks, Block{SizeIdx: i, T0: t0, T1: t1})
			}
		}
	}
	return blocks
}

// plannedTrials sums the trial counts of a block list per size index and in
// total — the execute layer's cancellation accounting.
func plannedTrials(blocks []Block) int {
	total := 0
	for _, b := range blocks {
		total += b.T1 - b.T0
	}
	return total
}
