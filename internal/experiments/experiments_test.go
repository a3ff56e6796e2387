package experiments

import (
	"context"
	"encoding/csv"
	"errors"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// smallCfg keeps experiment runs fast in unit tests; the full sweeps run in
// the benchmark suite and cmd/avgbench.
func smallCfg() Config {
	return Config{Seed: 7, Sizes: []int{16, 32, 64}, Trials: 2}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("All()[%d].ID = %s, want %s", i, all[i].ID, id)
		}
		e, err := Get(id)
		if err != nil {
			t.Errorf("Get(%s): %v", id, err)
		}
		if e.Title == "" || e.Claim == "" {
			t.Errorf("%s missing title or claim", id)
		}
	}
	if _, err := Get("E99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestAllExperimentsRunSmall(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(context.Background(), smallCfg())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			out := tab.Render()
			if !strings.Contains(out, tab.Columns[0]) {
				t.Errorf("%s render missing header", e.ID)
			}
		})
	}
}

func TestExperimentsDeterministicPerSeed(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E6"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := e.Run(context.Background(), smallCfg())
		if err != nil {
			t.Fatalf("%s run 1: %v", id, err)
		}
		t2, err := e.Run(context.Background(), smallCfg())
		if err != nil {
			t.Fatalf("%s run 2: %v", id, err)
		}
		if t1.Render() != t2.Render() {
			t.Errorf("%s not deterministic for a fixed seed", id)
		}
	}
}

// TestExperimentsDeterministicAcrossWorkers is the sharding guarantee
// surfaced at the table level: every experiment renders byte-identically
// whether its sweeps run on one worker or eight.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			seq := smallCfg()
			seq.Workers = 1
			par := smallCfg()
			par.Workers = 8
			t1, err := e.Run(context.Background(), seq)
			if err != nil {
				t.Fatalf("%s workers=1: %v", e.ID, err)
			}
			t2, err := e.Run(context.Background(), par)
			if err != nil {
				t.Fatalf("%s workers=8: %v", e.ID, err)
			}
			if r1, r2 := t1.Render(), t2.Render(); r1 != r2 {
				t.Errorf("%s table depends on the worker count:\nworkers=1:\n%s\nworkers=8:\n%s", e.ID, r1, r2)
			}
		})
	}
}

// TestE3UnsortedSizes regresses the out-of-range panic when the size
// override is not ascending: maxP must be the maximum, not the last entry.
func TestE3UnsortedSizes(t *testing.T) {
	e, err := Get("E3")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(context.Background(), Config{Seed: 1, Sizes: []int{64, 16}})
	if err != nil {
		t.Fatalf("descending sizes: %v", err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tab.Rows))
	}
}

// TestE5DuplicateSizes regresses the nil-report panic when the size sweep
// repeats a value: per-size slots are keyed by index, not by n.
func TestE5DuplicateSizes(t *testing.T) {
	e, err := Get("E5")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(context.Background(), Config{Seed: 1, Sizes: []int{16, 16}})
	if err != nil {
		t.Fatalf("duplicate sizes: %v", err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tab.Rows))
	}
}

// TestExperimentsCancellation cancels the context up front: every
// experiment must fail fast instead of computing its table.
func TestExperimentsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range All() {
		if _, err := e.Run(ctx, smallCfg()); err == nil {
			t.Errorf("%s ignored a cancelled context", e.ID)
		}
	}
}

func TestE2ExactIdentity(t *testing.T) {
	// The flagship identity: the engine run on the reconstructed worst
	// permutation must achieve a(n-1) + floor(n/2) exactly; E2 reports it
	// in the "exact" column.
	e, err := Get("E2")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(context.Background(), Config{Seed: 1, Sizes: []int{16, 64, 256, 1024}, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	exactCol := -1
	for i, c := range tab.Columns {
		if c == "exact" {
			exactCol = i
		}
	}
	if exactCol < 0 {
		t.Fatal("no exact column in E2")
	}
	for _, row := range tab.Rows {
		if row[exactCol] != "true" {
			t.Errorf("E2 row %v: engine/theory mismatch", row)
		}
	}
}

// TestE10ExactVsSampled is the CI smoke of the exact-vs-Monte-Carlo
// agreement table: small sizes, reduced sampling, and the hard identities —
// worstGap >= 0 everywhere, full coverage closing the gap to zero.
func TestE10ExactVsSampled(t *testing.T) {
	e, err := Get("E10")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(context.Background(), Config{Seed: 3, Sizes: []int{5, 6}, Trials: 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tab.Rows))
	}
	col := func(name string) int {
		for i, c := range tab.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("no %q column", name)
		return -1
	}
	gap := col("worstGap")
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[gap], "-") {
			t.Errorf("negative worstGap in row %v", row)
		}
	}
	// 120 sampled trials cover all 120 permutations of n=5 with high
	// multiplicity... but not necessarily every one; the gap identity is
	// what matters. With sizes beyond the cap the experiment must clamp,
	// not fail.
	tab2, err := e.Run(context.Background(), Config{Seed: 3, Sizes: []int{5, 4096}, Trials: 60})
	if err != nil {
		t.Fatalf("oversized size override: %v", err)
	}
	if len(tab2.Rows) != 1 {
		t.Fatalf("clamped run has %d rows, want 1", len(tab2.Rows))
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
	}
	tab.AddRow(ci(1), cf(2.5))
	tab.AddRow(cs("x"), cs("y"))
	tab.AddNote("note %d", 7)
	out := tab.Render()
	for _, want := range []string{"demo", "a", "bb", "2.500", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var sb strings.Builder
	if err := tab.WriteCSV(csv.NewWriter(&sb)); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !strings.Contains(sb.String(), "a,bb") {
		t.Errorf("csv missing header: %q", sb.String())
	}
	lines := strings.Count(strings.TrimSpace(sb.String()), "\n") + 1
	if lines != 3 {
		t.Errorf("csv has %d lines, want 3", lines)
	}
}

// TestConfigKnobsReachEveryExperiment pins the expandSweeps/configSpec
// contract: -backend and -streamids act uniformly whether an experiment
// exposes Sweeps or runs inline specs. The implicit backend must fail
// typed on E9's non-implicit families, must leave bytes alone where it is
// servable, and -streamids must be a no-op (not a conflict) on sweeps
// without sampled draws — E2's fixed worst permutation, E10's exhaustive
// enumeration.
func TestConfigKnobsReachEveryExperiment(t *testing.T) {
	ctx := context.Background()

	e9, err := Get("E9")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	cfg.Backend = "implicit"
	if _, err := e9.Run(ctx, cfg); err == nil {
		t.Fatal("E9 with the implicit backend ran; want ImplicitUnsupportedError for the grid family")
	} else {
		var iu *sweep.ImplicitUnsupportedError
		if !errors.As(err, &iu) {
			t.Fatalf("E9 implicit error = %v, want *sweep.ImplicitUnsupportedError", err)
		}
	}

	for _, id := range []string{"E2", "E10", "E5", "E8"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		base, err := e.Run(ctx, smallCfg())
		if err != nil {
			t.Fatalf("%s base: %v", id, err)
		}
		cfg := smallCfg()
		cfg.Backend = "builder"
		viaBuilder, err := e.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s -backend builder: %v", id, err)
		}
		if base.Render() != viaBuilder.Render() {
			t.Errorf("%s: builder backend changed the bytes", id)
		}
	}

	// StreamIDs applies only to sampled draws: E2 (sweep 0 fixed Assign)
	// and E10 (exhaustive + sampled comparison) must run, and E2's
	// sampled column must change while the exact column stays pinned.
	for _, id := range []string{"E2", "E10"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallCfg()
		cfg.StreamIDs = true
		if _, err := e.Run(ctx, cfg); err != nil {
			t.Fatalf("%s with StreamIDs: %v", id, err)
		}
	}

	// The execution-only knobs never change bytes, so the comparisons
	// above cannot show one being dropped: check that every spec carries
	// them, whether it comes from Sweeps or from an inline configSpec.
	knobs := Config{Seed: 1, Workers: 3, NoKernels: true, Backend: "builder"}
	carries := func(s sweep.Spec) bool {
		return s.Workers == 3 && s.NoKernels && s.Backend == sweep.BackendBuilder
	}
	if s := configSpec(sweep.Spec{}, knobs); !carries(s) {
		t.Errorf("configSpec dropped an execution knob: workers=%d nokernels=%v backend=%q",
			s.Workers, s.NoKernels, s.Backend)
	}
	for _, e := range All() {
		if !e.Shardable() {
			continue
		}
		specs, err := expandSweeps(e, knobs)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for k, s := range specs {
			if !carries(s) {
				t.Errorf("%s sweep %d dropped an execution knob: workers=%d nokernels=%v backend=%q",
					e.ID, k, s.Workers, s.NoKernels, s.Backend)
			}
		}
	}
}

// TestRunSweepsRejectsUnshardable: experiments without the Sweeps/Tabulate
// split fail fast instead of silently running something else.
func TestRunSweepsRejectsUnshardable(t *testing.T) {
	e3, err := Get("E3")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSweeps(context.Background(), e3, Config{Seed: 1}, sweep.Shard{}, "")
	if err == nil || !strings.Contains(err.Error(), "does not expose its sweeps") {
		t.Errorf("unshardable experiment: got %v, want an error saying it does not expose its sweeps", err)
	}
}

// TestRunSweepsRejectsShard: a static split lives in a lease store, so a
// non-zero shard fails before any sweep runs and points at the store
// flags.
func TestRunSweepsRejectsShard(t *testing.T) {
	e6, err := Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSweeps(context.Background(), e6, Config{Seed: 1, Sizes: []int{16}, Trials: 2}, sweep.Shard{Index: 0, Count: 2}, "")
	if err == nil || !strings.Contains(err.Error(), "-store DIR -shard I/M") {
		t.Errorf("shard 0/2: got %v, want an error naming -store DIR -shard I/M", err)
	}
}

// TestRunSweepsRejectsCheckpointPath: durable progress lives in a lease
// store, so a checkpoint path fails before any sweep runs and points at
// the store flags.
func TestRunSweepsRejectsCheckpointPath(t *testing.T) {
	e6, err := Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSweeps(context.Background(), e6, Config{Seed: 1, Sizes: []int{16}, Trials: 2}, sweep.Shard{}, "run.ckpt")
	if err == nil || !strings.Contains(err.Error(), "-store DIR -lease") {
		t.Errorf("checkpoint path: got %v, want an error naming -store DIR -lease", err)
	}
}

// TestUnknownExperimentErrorListsIDs: the typed miss carries the whole
// registered menu in natural order.
func TestUnknownExperimentErrorListsIDs(t *testing.T) {
	_, err := Get("E99")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	var ue *UnknownExperimentError
	if !errors.As(err, &ue) {
		t.Fatalf("error %T is not *UnknownExperimentError", err)
	}
	if ue.ID != "E99" {
		t.Errorf("ID = %q", ue.ID)
	}
	for _, id := range []string{"E1", "E2", "E10"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %s", err, id)
		}
	}
	if want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}; len(ue.Known) != len(want) {
		t.Errorf("Known = %v, want %v", ue.Known, want)
	}
}
