package sweep

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// sliceDone is the Spec.Done that restricts a run of spec to slice sh of
// every size's trial space: the complement of sh.Range in [0, count).
func sliceDone(t *testing.T, spec Spec, sh Shard) [][]TrialRange {
	t.Helper()
	counts, err := mustPlanOf(spec).Counts()
	if err != nil {
		t.Fatal(err)
	}
	done := make([][]TrialRange, len(counts))
	for i, c := range counts {
		lo, hi := sh.Range(c)
		if lo > 0 {
			done[i] = append(done[i], TrialRange{T0: 0, T1: lo})
		}
		if hi < c {
			done[i] = append(done[i], TrialRange{T0: hi, T1: c})
		}
	}
	return done
}

// runShards executes the spec as m independent runs, run i restricted by
// Spec.Done to slice i of m, each round-tripped through the binary codec
// to simulate the process boundary, and merges them with MergeResults.
func runShards(t *testing.T, spec Spec, m int, workersOf func(i int) int) *Result {
	t.Helper()
	parts := make([]*Result, m)
	for i := 0; i < m; i++ {
		s := spec
		s.Done = sliceDone(t, spec, Shard{Index: i, Count: m})
		s.Workers = workersOf(i)
		res, err := Run(context.Background(), s)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, m, err)
		}
		var buf bytes.Buffer
		if err := EncodeResult(&buf, res); err != nil {
			t.Fatalf("encode shard %d/%d: %v", i, m, err)
		}
		decoded, err := DecodeResult(&buf)
		if err != nil {
			t.Fatalf("decode shard %d/%d: %v", i, m, err)
		}
		parts[i] = decoded
	}
	merged, err := MergeResults(parts...)
	if err != nil {
		t.Fatalf("merge %d shards: %v", m, err)
	}
	return merged
}

// TestShardMergeIdenticalSampled is the partition acceptance at the engine
// level: m slice processes + merge are byte-identical to a single-process
// sampled run, for m in {1, 2, 4}, across slice-local worker counts.
func TestShardMergeIdenticalSampled(t *testing.T) {
	spec := cycleSpec(42, []int{16, 33, 64}, 9, 1)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2, 4} {
		got := runShards(t, spec, m, func(i int) int { return 1 + i%3 })
		if !reflect.DeepEqual(want, got) {
			t.Errorf("m=%d: shard+merge diverges from single process\nwant: %+v\ngot:  %+v", m, want, got)
		}
	}
}

// TestShardMergeIdenticalExhaustive: the same guarantee for full n!
// enumeration — rank blocks partition across processes like trials do.
func TestShardMergeIdenticalExhaustive(t *testing.T) {
	spec := exhaustiveSpec([]int{5, 6}, 2)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2, 4} {
		got := runShards(t, spec, m, func(i int) int { return 1 + i })
		if !reflect.DeepEqual(want, got) {
			t.Errorf("m=%d: exhaustive shard+merge diverges from single process", m)
		}
	}
}

// TestShardMergeMoreShardsThanTrials: degenerate slicing — more slices
// than trials leaves some runs empty; the merge must still be exact.
func TestShardMergeMoreShardsThanTrials(t *testing.T) {
	spec := cycleSpec(3, []int{8}, 2, 1)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got := runShards(t, spec, 5, func(int) int { return 2 })
	if !reflect.DeepEqual(want, got) {
		t.Errorf("empty-shard merge diverges:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestMergeResultsValidation pins the mismatch errors.
func TestMergeResultsValidation(t *testing.T) {
	if _, err := MergeResults(); err == nil {
		t.Error("empty merge accepted")
	}
	a := &Result{Sizes: []SizeStats{{N: 8}}}
	b := &Result{Sizes: []SizeStats{{N: 8}, {N: 16}}}
	if _, err := MergeResults(a, b); err == nil {
		t.Error("length mismatch accepted")
	}
	c := &Result{Sizes: []SizeStats{{N: 9}}}
	if _, err := MergeResults(a, c); err == nil {
		t.Error("size mismatch accepted")
	}
}

// TestMergeResultsDoesNotMutateInputs: merging must deep-copy histograms,
// not alias the inputs' slices.
func TestMergeResultsDoesNotMutateInputs(t *testing.T) {
	spec := cycleSpec(11, []int{12}, 4, 1)
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]int64(nil), res.Sizes[0].Hist...)
	merged, err := MergeResults(res, res)
	if err != nil {
		t.Fatal(err)
	}
	merged.Sizes[0].Hist[0] += 1000
	if !reflect.DeepEqual(res.Sizes[0].Hist, snapshot) {
		t.Error("MergeResults aliased an input histogram")
	}
	if merged.Sizes[0].Trials != 2*res.Sizes[0].Trials {
		t.Errorf("double merge trials = %d, want %d", merged.Sizes[0].Trials, 2*res.Sizes[0].Trials)
	}
}
