package experiments

// Leased runs: the experiment-level face of the sweep engine's
// work-stealing lease protocol (internal/sweep/lease.go). A static
// schedule (LeaseOptions.Static) fixes an i-of-m split up front; a dynamic
// leased run lets any number of executors — started at any time, on any
// machine sharing the store — pull grain-aligned trial ranges from the
// uncovered space, steal straggler tails and re-execute dead workers'
// claims. Re-running an executor over the same store resumes from its
// completion records. Either way the merged table stays byte-identical to
// a single-process run.
//
// The store layout namespaces one run per (experiment, normalized config):
//
//	lease/<exp>-<confighash>/manifest – experiment id + full config
//	lease/<exp>-<confighash>/s<k>/…   – sweep k's lease run (plan, leases,
//	                                    per-grain completions)
//
// The manifest makes a store self-describing: a merger (cmd/sweepmerge
// -store) discovers the run, recovers the config, and tabulates without
// being told anything beyond the directory.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"

	"repro/internal/sweep"
)

// formatLeaseManifest tags a leased run's manifest record.
const formatLeaseManifest = "experiments.leasemanifest"

// LeaseManifest identifies a leased run: which experiment, which config.
// The config is stored in full (a merger needs it to Tabulate), compared
// normalized (parallelism knobs cannot change result bytes).
type LeaseManifest struct {
	Experiment string `json:"experiment"`
	Config     Config `json:"config"`
}

// JobKey is the normalized-config identity of an (experiment, config)
// run: the experiment id plus a short hash of the result-affecting config
// fields. Two submissions that must produce byte-identical tables —
// parallelism knobs and perf toggles differ, nothing else — share a key,
// which is what lets sweepd deduplicate "millions of users" submitting
// the same sweep into one computation and one cached table.
func JobKey(e Experiment, cfg Config) string {
	raw, err := json.Marshal(normalizedConfig(cfg))
	if err != nil {
		// Config is plain scalars; Marshal cannot fail on it.
		panic(fmt.Sprintf("experiments: marshal config: %v", err))
	}
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%s-%016x", strings.ToLower(e.ID), h.Sum64())
}

// LeaseRunPrefix is the store namespace of an (experiment, config) leased
// run — the job key under "lease/", so runs of one experiment under
// different configs never share records.
func LeaseRunPrefix(e Experiment, cfg Config) string {
	return "lease/" + JobKey(e, cfg)
}

func manifestKey(prefix string) string { return prefix + "/manifest" }

func sweepPrefix(prefix string, k int) string { return fmt.Sprintf("%s/s%d", prefix, k) }

// ensureManifest writes the run's manifest, or validates an existing one
// against this executor's identity. A torn manifest is overwritten.
func ensureManifest(st sweep.Store, prefix string, e Experiment, cfg Config) error {
	key := manifestKey(prefix)
	if data, err := st.Get(key); err == nil {
		mf := &LeaseManifest{}
		if derr := sweep.DecodeFile(bytes.NewReader(data), formatLeaseManifest, mf); derr == nil {
			if mf.Experiment != e.ID ||
				!reflect.DeepEqual(normalizedConfig(mf.Config), normalizedConfig(cfg)) {
				return fmt.Errorf("experiments: lease run %q belongs to a different experiment or config", prefix)
			}
			return nil
		}
	}
	var buf bytes.Buffer
	if err := sweep.EncodeFile(&buf, formatLeaseManifest, &LeaseManifest{Experiment: e.ID, Config: cfg}); err != nil {
		return err
	}
	if err := st.Put(key, buf.Bytes()); err != nil {
		return fmt.Errorf("experiments: write lease manifest: %w", err)
	}
	return nil
}

// RunLeasedSweeps executes every sweep of a shardable experiment as one
// lease executor over the store, sweep by sweep, and returns the summed
// participation stats. opts.Prefix is ignored — the run prefix is derived
// from the experiment and config (LeaseRunPrefix) so independently started
// executors land in the same namespace by construction. The call returns
// when every sweep's target is covered; it does NOT return results —
// MergeLeased (or cmd/sweepmerge -store) collects them from the store.
func RunLeasedSweeps(ctx context.Context, e Experiment, cfg Config, st sweep.Store, opts sweep.LeaseOptions) (sweep.LeaseStats, error) {
	var total sweep.LeaseStats
	if !e.Shardable() {
		return total, fmt.Errorf("experiments: %s does not expose its sweeps; it cannot run leased", e.ID)
	}
	specs, err := expandSweeps(e, cfg)
	if err != nil {
		return total, fmt.Errorf("experiments: %s sweeps: %w", e.ID, err)
	}
	prefix := LeaseRunPrefix(e, cfg)
	// The manifest rides out transient store faults under the same policy
	// RunLeased gives its own records; RunLeased takes the unwrapped store.
	if err := ensureManifest(sweep.RetryingStore(ctx, st, opts), prefix, e, cfg); err != nil {
		return total, err
	}
	for k := range specs {
		o := opts
		o.Prefix = sweepPrefix(prefix, k)
		stats, err := sweep.RunLeased(ctx, specs[k], st, o)
		total.Add(stats)
		if err != nil {
			return total, fmt.Errorf("experiments: %s sweep %d: %w", e.ID, k, err)
		}
	}
	return total, nil
}

// MergeLeased collects a leased run's per-grain completion records into
// the experiment's final table — byte-identical to a single-process run.
// Incomplete runs fail with sweep's typed *IncompleteError (still
// running? worker died?), double-counting with *OverlapError.
func MergeLeased(e Experiment, cfg Config, st sweep.Store) (*Table, error) {
	if !e.Shardable() {
		return nil, fmt.Errorf("experiments: %s does not expose its sweeps; it cannot merge a leased run", e.ID)
	}
	specs, err := expandSweeps(e, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s sweeps: %w", e.ID, err)
	}
	prefix := LeaseRunPrefix(e, cfg)
	results := make([]*sweep.Result, len(specs))
	for k := range specs {
		plan, err := sweep.PlanOf(specs[k])
		if err != nil {
			return nil, fmt.Errorf("experiments: %s sweep %d: %w", e.ID, k, err)
		}
		res, err := sweep.CollectLeased(st, sweepPrefix(prefix, k), plan)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s sweep %d: %w", e.ID, k, err)
		}
		results[k] = res
	}
	return e.Tabulate(cfg, results)
}

// LeasedRun is one discovered run: its manifest plus the store prefix its
// records live under.
type LeasedRun struct {
	Manifest LeaseManifest
	Prefix   string
}

// DiscoverLeasedRuns lists the leased runs a store holds with their store
// prefixes — the resumable-run discovery a restarted sweepd re-attaches
// with: every manifest under "lease/" whose bytes decode names a run whose
// durable per-grain progress is still in the store. Torn or foreign
// manifests are skipped.
func DiscoverLeasedRuns(st sweep.Store) ([]LeasedRun, error) {
	names, err := st.List("lease/")
	if err != nil {
		return nil, err
	}
	var runs []LeasedRun
	for _, name := range names {
		prefix, ok := strings.CutSuffix(name, "/manifest")
		if !ok {
			continue
		}
		data, err := st.Get(name)
		if err != nil {
			continue
		}
		mf := LeaseManifest{}
		if derr := sweep.DecodeFile(bytes.NewReader(data), formatLeaseManifest, &mf); derr != nil {
			continue
		}
		runs = append(runs, LeasedRun{Manifest: mf, Prefix: prefix})
	}
	return runs, nil
}

// LeasedProgress snapshots a leased run's per-sweep coverage and live
// claims without joining it: one Progress per sweep, in Sweeps order. A
// store holding no records for the run yet reports zero coverage.
func LeasedProgress(e Experiment, cfg Config, st sweep.Store) ([]*sweep.Progress, error) {
	if !e.Shardable() {
		return nil, fmt.Errorf("experiments: %s does not expose its sweeps; it has no leased progress", e.ID)
	}
	specs, err := expandSweeps(e, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s sweeps: %w", e.ID, err)
	}
	prefix := LeaseRunPrefix(e, cfg)
	out := make([]*sweep.Progress, len(specs))
	for k := range specs {
		plan, err := sweep.PlanOf(specs[k])
		if err != nil {
			return nil, fmt.Errorf("experiments: %s sweep %d: %w", e.ID, k, err)
		}
		p, err := sweep.LeaseProgress(st, sweepPrefix(prefix, k), plan)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s sweep %d: %w", e.ID, k, err)
		}
		out[k] = p
	}
	return out, nil
}
