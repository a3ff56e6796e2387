package sweep

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mustPlanOf derives a spec's plan for tests whose specs cannot make
// PlanOf fail (no quotient, or a quotient over supported families).
func mustPlanOf(spec Spec) Plan {
	p, err := PlanOf(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// TestShardRangePartition is the plan layer's core invariant: for any
// (total, count), the m shard ranges are contiguous, cover [0, total)
// exactly once, and differ in size by at most one.
func TestShardRangePartition(t *testing.T) {
	for _, total := range []int{0, 1, 2, 7, 40, 719, 5040} {
		for _, count := range []int{1, 2, 3, 4, 7, 16} {
			next := 0
			minLen, maxLen := total+1, -1
			for i := 0; i < count; i++ {
				lo, hi := Shard{Index: i, Count: count}.Range(total)
				if lo != next {
					t.Fatalf("total=%d count=%d: shard %d starts at %d, want %d", total, count, i, lo, next)
				}
				if hi < lo {
					t.Fatalf("total=%d count=%d: shard %d inverted [%d,%d)", total, count, i, lo, hi)
				}
				if l := hi - lo; l < minLen {
					minLen = l
				} else if l > maxLen {
					maxLen = l
				}
				if l := hi - lo; l > maxLen {
					maxLen = l
				}
				next = hi
			}
			if next != total {
				t.Fatalf("total=%d count=%d: shards end at %d", total, count, next)
			}
			if maxLen >= 0 && maxLen-minLen > 1 {
				t.Fatalf("total=%d count=%d: shard lengths spread %d..%d", total, count, minLen, maxLen)
			}
		}
	}
	if lo, hi := (Shard{}).Range(42); lo != 0 || hi != 42 {
		t.Fatalf("zero shard range [%d,%d), want [0,42)", lo, hi)
	}
}

// TestShardValidation checks that a malformed static shard is refused
// before any grain runs: Static is the only way to hand the engine a
// shard, and it shares Shard.validate with the -shard flag.
func TestShardValidation(t *testing.T) {
	for _, s := range []Shard{{Index: -1, Count: 2}, {Index: 2, Count: 2}, {Index: 0, Count: -1}, {Index: 1, Count: 0}} {
		spec := cycleSpec(1, []int{8}, 2, 1)
		if _, err := RunLeased(context.Background(), spec, NewMemStore(), LeaseOptions{Worker: "w", Static: s}); err == nil {
			t.Errorf("shard %+v accepted", s)
		}
	}
}

// TestSubtractRanges pins the complement computation resume is built on.
func TestSubtractRanges(t *testing.T) {
	cases := []struct {
		lo, hi int
		done   []TrialRange
		want   []TrialRange
	}{
		{0, 10, nil, []TrialRange{{0, 10}}},
		{0, 10, []TrialRange{{0, 10}}, nil},
		{0, 10, []TrialRange{{3, 5}}, []TrialRange{{0, 3}, {5, 10}}},
		{0, 10, []TrialRange{{0, 4}, {6, 8}}, []TrialRange{{4, 6}, {8, 10}}},
		{2, 8, []TrialRange{{0, 3}, {7, 12}}, []TrialRange{{3, 7}}},
		{5, 6, []TrialRange{{0, 2}}, []TrialRange{{5, 6}}},
		{0, 6, []TrialRange{{5, 6}}, []TrialRange{{0, 5}}},
		// Edge cases the lease scheduler leans on: an empty window, Done
		// covering the whole space and beyond, single-trial ranges and
		// complements, and Done exactly tiling the window.
		{3, 3, nil, nil},                                                           // empty window, nothing done
		{3, 3, []TrialRange{{0, 10}}, nil},                                         // empty window, everything done
		{0, 10, []TrialRange{{0, 25}}, nil},                                        // done overshoots the window
		{4, 8, []TrialRange{{0, 4}, {8, 12}}, []TrialRange{{4, 8}}},                // done only outside
		{0, 1, nil, []TrialRange{{0, 1}}},                                          // single-trial space
		{0, 1, []TrialRange{{0, 1}}, nil},                                          // single-trial space, done
		{0, 5, []TrialRange{{0, 1}, {2, 3}, {4, 5}}, []TrialRange{{1, 2}, {3, 4}}}, // single-trial holes
		{0, 4, []TrialRange{{0, 2}, {2, 4}}, nil},                                  // exact tiling in two pieces
		{7, 9, []TrialRange{{8, 9}}, []TrialRange{{7, 8}}},                         // tail already done
	}
	for _, c := range cases {
		got := subtractRanges(c.lo, c.hi, c.done)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("subtract [%d,%d) - %v = %v, want %v", c.lo, c.hi, c.done, got, c.want)
		}
	}
}

// TestPlanBlocksCoverage: for any Done carve-out, the planned blocks cover
// exactly the runnable coordinates, each exactly once, in ascending order
// within every size.
func TestPlanBlocksCoverage(t *testing.T) {
	counts := []int{40, 17, 100}
	order := []int{2, 0, 1}
	for _, done := range [][][]TrialRange{
		nil,
		{{{3, 9}}, nil, {{0, 50}, {90, 95}}},
		{{{0, 40}}, {{0, 5}, {6, 17}}, {{1, 99}}},
	} {
		blocks := planBlocks(order, counts, done, 4)
		seen := make([]map[int]bool, len(counts))
		last := make([]int, len(counts))
		for i := range seen {
			seen[i] = make(map[int]bool)
			last[i] = -1
		}
		for _, b := range blocks {
			if b.T0 >= b.T1 {
				t.Fatalf("empty block %+v", b)
			}
			if b.T0 < last[b.SizeIdx] {
				t.Fatalf("blocks out of ascending order at %+v", b)
			}
			last[b.SizeIdx] = b.T1
			for tr := b.T0; tr < b.T1; tr++ {
				if seen[b.SizeIdx][tr] {
					t.Fatalf("trial (%d,%d) planned twice", b.SizeIdx, tr)
				}
				seen[b.SizeIdx][tr] = true
			}
		}
		for i, c := range counts {
			for tr := 0; tr < c; tr++ {
				inDone := false
				if done != nil {
					for _, d := range done[i] {
						if tr >= d.T0 && tr < d.T1 {
							inDone = true
						}
					}
				}
				if seen[i][tr] == inDone {
					t.Fatalf("done %v size %d trial %d: planned=%v done=%v", done, i, tr, seen[i][tr], inDone)
				}
			}
		}
	}
}

// TestPlanOfEqual: PlanOf normalises the trial count and Equal compares by
// value including the size list.
func TestPlanOfEqual(t *testing.T) {
	spec := cycleSpec(9, []int{8, 16}, 0, 1)
	p := mustPlanOf(spec)
	if p.Trials != 1 {
		t.Errorf("PlanOf left Trials=%d, want normalised 1", p.Trials)
	}
	ex := exhaustiveSpec([]int{5}, 1)
	pe := mustPlanOf(ex)
	if pe.Trials != 0 || !pe.Exhaustive {
		t.Errorf("exhaustive PlanOf = %+v", pe)
	}
	q := mustPlanOf(spec)
	if !p.Equal(q) {
		t.Error("equal plans reported unequal")
	}
	q.Sizes = []int{8, 17}
	if p.Equal(q) {
		t.Error("plans with different sizes reported equal")
	}
}

// TestDoneValidation rejects malformed resume lists.
func TestDoneValidation(t *testing.T) {
	bad := [][][]TrialRange{
		{{{T0: -1, T1: 2}}, nil},        // negative start
		{{{T0: 0, T1: 10}}, nil},        // beyond count
		{{{T0: 3, T1: 3}}, nil},         // empty range
		{{{T0: 0, T1: 4}, {2, 6}}, nil}, // overlapping
		{{{T0: 4, T1: 6}, {0, 2}}, nil}, // descending
		{nil},                           // wrong length
	}
	for _, done := range bad {
		spec := cycleSpec(1, []int{8, 12}, 5, 1)
		spec.Done = done
		if _, err := Run(context.Background(), spec); err == nil {
			t.Errorf("Done %v accepted", done)
		}
	}
	spec := cycleSpec(1, []int{8, 12}, 5, 1)
	spec.Done = [][]TrialRange{{{T0: 0, T1: 2}}, nil}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Errorf("valid Done rejected: %v", err)
	}
	// The degenerate extremes are valid too: Done covering the whole space
	// (nothing left to run) and single-trial ranges tiling it.
	spec = cycleSpec(1, []int{8, 12}, 5, 1)
	spec.Done = [][]TrialRange{{{T0: 0, T1: 5}}, {{T0: 0, T1: 5}}}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("fully-done spec rejected: %v", err)
	}
	for i, s := range res.Sizes {
		if s.Trials != 0 {
			t.Errorf("fully-done run executed %d trials at size %d", s.Trials, i)
		}
	}
	spec = cycleSpec(1, []int{8, 12}, 5, 1)
	spec.Done = [][]TrialRange{{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}, {{1, 2}, {3, 4}}}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Errorf("single-trial Done tiling rejected: %v", err)
	}
}

// TestLeasePartitionProperty is the merge's property test: ANY partition
// of the trial space into ranges — executed independently, each as its own
// "lease" with the rest of the space declared done, in shuffled order —
// folds back to the bytes of the uninterrupted run. This is the invariant
// the whole lease protocol rests on; grains are just one such partition.
func TestLeasePartitionProperty(t *testing.T) {
	spec := cycleSpec(17, []int{9, 13}, 24, 2)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{24, 24}
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		// Draw a random partition of every size's trial space.
		type piece struct {
			size int
			r    TrialRange
		}
		var pieces []piece
		for i, c := range counts {
			cur := 0
			for cur < c {
				w := 1 + rng.Intn(c-cur)
				pieces = append(pieces, piece{size: i, r: TrialRange{T0: cur, T1: cur + w}})
				cur += w
			}
		}
		rng.Shuffle(len(pieces), func(a, b int) { pieces[a], pieces[b] = pieces[b], pieces[a] })
		// Execute each piece independently: Done = complement of the piece.
		got := &Result{Sizes: make([]SizeStats, len(counts))}
		for i, n := range spec.Sizes {
			got.Sizes[i].N = n
		}
		type keyed struct {
			piece
			stats SizeStats
		}
		var parts []keyed
		for _, p := range pieces {
			s := spec
			done := make([][]TrialRange, len(counts))
			for j, c := range counts {
				if j != p.size {
					done[j] = []TrialRange{{T0: 0, T1: c}}
					continue
				}
				var rs []TrialRange
				if p.r.T0 > 0 {
					rs = append(rs, TrialRange{T0: 0, T1: p.r.T0})
				}
				if p.r.T1 < c {
					rs = append(rs, TrialRange{T0: p.r.T1, T1: c})
				}
				done[j] = rs
			}
			s.Done = done
			res, err := Run(context.Background(), s)
			if err != nil {
				t.Fatalf("trial %d piece %+v: %v", trial, p, err)
			}
			parts = append(parts, keyed{piece: p, stats: res.Sizes[p.size]})
		}
		// Fold in ascending trial order per size, the way CollectLeased does.
		sort.Slice(parts, func(a, b int) bool {
			if parts[a].size != parts[b].size {
				return parts[a].size < parts[b].size
			}
			return parts[a].r.T0 < parts[b].r.T0
		})
		for _, p := range parts {
			got.Sizes[p.size].Merge(&p.stats)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: partition fold differs from uninterrupted run\nwant: %+v\ngot:  %+v", trial, want, got)
		}
	}
}
