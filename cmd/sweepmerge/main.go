// Command sweepmerge renders the final table of a leased run from its store
// directory, without executing anything. Executors started with
// `avgbench -e <ID> -store DIR -lease` or `-store DIR -shard i/m` leave
// per-grain completion records in DIR; once they cover the whole trial
// space, the merged table is byte-identical to the one a single
// `avgbench -e <ID>` process prints: the engine's aggregate merge is
// deterministic and tie-broken by trial index exactly like the in-process
// fold. The store is self-describing — its manifest names the experiment
// and config — so the merge needs only the directory:
//
//	avgbench -e E6 -store st/ -shard 0/2
//	avgbench -e E6 -store st/ -shard 1/2
//	sweepmerge -store st/               # == avgbench -e E6
//	sweepmerge -store st/ -csv          # machine-readable, like avgbench -csv
//	sweepmerge -store st/ -json         # metadata + table, like avgbench -json
//	sweepmerge -store st/ -run E6       # disambiguate a multi-run store
//
// A run not yet covered fails with the typed incomplete error (exit 2);
// overlapping or corrupt records are rejected before anything is merged.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		// Typed failures exit distinctly: 2 = incomplete run (recoverable,
		// finish the executors and retry), 3 = corrupt data (inspect the
		// named record), 1 = anything else.
		os.Exit(cli.Report(os.Stderr, "sweepmerge", err))
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweepmerge", flag.ContinueOnError)
	asCSV := fs.Bool("csv", false, "emit CSV instead of aligned text")
	asJSON := fs.Bool("json", false, "emit JSON (table plus metadata)")
	storeFlag := fs.String("store", "", "store directory of the leased run to merge")
	runFlag := fs.String("run", "", "experiment ID of the leased run to merge, when the store holds several")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asCSV && *asJSON {
		return fmt.Errorf("-csv and -json are mutually exclusive")
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q; sweepmerge reads only the -store directory", fs.Args())
	}
	if *storeFlag == "" {
		return fmt.Errorf("-store is required: the directory the executors shared")
	}
	e, tab, err := mergeStore(*storeFlag, *runFlag)
	if err != nil {
		return err
	}

	// Mirror avgbench's output formats exactly, so `diff` against a
	// single-process run is the equivalence check.
	switch {
	case *asJSON:
		out := []struct {
			ID    string             `json:"id"`
			Title string             `json:"title"`
			Claim string             `json:"claim"`
			Table *experiments.Table `json:"table"`
		}{{ID: e.ID, Title: e.Title, Claim: e.Claim, Table: tab}}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	case *asCSV:
		return tab.WriteCSV(csv.NewWriter(stdout))
	default:
		fmt.Fprintf(stdout, "== %s: %s\n   claim: %s\n", e.ID, e.Title, e.Claim)
		fmt.Fprintln(stdout, tab.Render())
	}
	return nil
}

// mergeStore collects a leased run from a store directory. The store's
// manifests say what it holds; runID (an experiment ID) narrows the choice
// when executors for several experiments shared one directory.
func mergeStore(dir, runID string) (experiments.Experiment, *experiments.Table, error) {
	var none experiments.Experiment
	st, err := sweep.NewDirStore(dir)
	if err != nil {
		return none, nil, err
	}
	runs, err := experiments.DiscoverLeasedRuns(st)
	if err != nil {
		return none, nil, err
	}
	if runID != "" {
		matched := runs[:0]
		for _, r := range runs {
			if strings.EqualFold(r.Manifest.Experiment, runID) {
				matched = append(matched, r)
			}
		}
		runs = matched
	}
	switch len(runs) {
	case 0:
		if runID != "" {
			return none, nil, fmt.Errorf("%s holds no leased %s run", dir, runID)
		}
		return none, nil, fmt.Errorf("%s holds no leased runs", dir)
	case 1:
	default:
		var ids []string
		for _, r := range runs {
			ids = append(ids, r.Manifest.Experiment)
		}
		return none, nil, fmt.Errorf("%s holds %d leased runs (%s); pick one with -run", dir, len(runs), strings.Join(ids, ", "))
	}
	mf := runs[0].Manifest
	e, err := experiments.Get(mf.Experiment)
	if err != nil {
		return none, nil, err
	}
	tab, err := experiments.MergeLeased(e, mf.Config, st)
	if err != nil {
		return none, nil, err
	}
	return e, tab, nil
}
