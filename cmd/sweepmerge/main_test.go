package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

var e6Cfg = experiments.Config{Seed: 4, Sizes: []int{16, 24}, Trials: 6}

// runStatic executes the given static slices i/m of an experiment into the
// store directory, the way `avgbench -e <ID> -store dir -shard i/m` does.
func runStatic(t *testing.T, dir, id string, cfg experiments.Config, m int, slices ...int) {
	t.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sweep.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range slices {
		opts := sweep.LeaseOptions{Worker: fmt.Sprintf("s%d", i), GrainsPerSize: 4,
			Static: sweep.Shard{Index: i, Count: m}}
		if _, err := experiments.RunLeasedSweeps(context.Background(), e, cfg, st, opts); err != nil {
			t.Fatalf("%s static %d/%d: %v", id, i, m, err)
		}
	}
}

// singleProcess renders what `avgbench -e <ID>` prints for cfg.
func singleProcess(t *testing.T, id string, cfg experiments.Config) string {
	t.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("== %s: %s\n   claim: %s\n%s\n", e.ID, e.Title, e.Claim, tab.Render())
}

func TestMergeRejectsMissingAndBadInput(t *testing.T) {
	dir := t.TempDir()
	runStatic(t, dir, "E6", e6Cfg, 1, 0)
	cases := [][]string{
		nil,                              // no -store
		{"-csv", "-json", "-store", dir}, // two output formats
		{"-store", dir, "s0.json"},       // positional file arguments
		{"s0.json", "s1.json"},           // shard files are not an input
		{"-store", t.TempDir()},          // no leased run in the store
		{"-store", dir, "-run", "E2"},    // no such run in the store
		{"-run", "E6"},                   // -run without -store
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestMergeShardSet: a complete static run renders the single-process
// table, in every output format.
func TestMergeShardSet(t *testing.T) {
	dir := t.TempDir()
	runStatic(t, dir, "E6", e6Cfg, 2, 0, 1)
	var out bytes.Buffer
	if err := run([]string{"-store", dir}, &out); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if want := singleProcess(t, "E6", e6Cfg); out.String() != want {
		t.Errorf("merged table differs from single process\nwant:\n%s\ngot:\n%s", want, out.String())
	}
	for _, format := range []string{"-csv", "-json"} {
		out.Reset()
		if err := run([]string{format, "-store", dir}, &out); err != nil {
			t.Fatalf("%s merge: %v", format, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s merge printed nothing", format)
		}
	}
}

// TestMergeIncompleteRun: half a static run fails with the typed
// incomplete error, which the CLI reports as exit 2.
func TestMergeIncompleteRun(t *testing.T) {
	dir := t.TempDir()
	runStatic(t, dir, "E6", e6Cfg, 2, 0)
	err := run([]string{"-store", dir}, io.Discard)
	var inc *sweep.IncompleteError
	if !errors.As(err, &inc) {
		t.Fatalf("half run: got %v, want *sweep.IncompleteError", err)
	}
	if code := cli.Report(io.Discard, "sweepmerge", err); code != cli.ExitIncomplete {
		t.Errorf("exit code %d, want %d", code, cli.ExitIncomplete)
	}
}

// TestMergeMultiRunStoreNeedsRun: a store holding two experiments' runs
// must be disambiguated with -run, which then picks the right one.
func TestMergeMultiRunStoreNeedsRun(t *testing.T) {
	dir := t.TempDir()
	e2Cfg := experiments.Config{Seed: 4, Sizes: []int{16}, Trials: 3}
	runStatic(t, dir, "E6", e6Cfg, 1, 0)
	runStatic(t, dir, "E2", e2Cfg, 1, 0)
	err := run([]string{"-store", dir}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-run") {
		t.Fatalf("two-run store without -run: got %v, want an error naming -run", err)
	}
	for id, cfg := range map[string]experiments.Config{"E6": e6Cfg, "e2": e2Cfg} {
		var out bytes.Buffer
		if err := run([]string{"-store", dir, "-run", id}, &out); err != nil {
			t.Fatalf("-run %s: %v", id, err)
		}
		if want := singleProcess(t, strings.ToUpper(id), cfg); out.String() != want {
			t.Errorf("-run %s table differs from single process\nwant:\n%s\ngot:\n%s", id, want, out.String())
		}
	}
}
