// Command perfbench is the repository benchmark. It runs one named
// workload through the public APIs of the sweep, exact and serve packages,
// checks every output, and prints a human report followed by one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the JSON metrics are the end-to-end metrics, timed with
// tracing off. With -trace 1 the run is a separate traced pass: it replays
// each layer's public functions on the workload's own inputs, records
// spans in memory, writes them to -spans when the run ends, and reports the
// per-layer metrics derived from them plus the tracing overhead.
//
// Build and run it with perfbench/run.sh from the repository root (the
// script pins the Go caches inside the checkout):
//
//	bash perfbench/run.sh --workload sampled-cycle --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// e2eNames are the end-to-end metrics of the final JSON line (-trace 0),
// in BENCHMARK.json order. Every workload measures every one of them.
var e2eNames = []string{"setup_s", "wall_s", "vertices_per_s", "speedup_2w", "peak_rss_mib"}

// layerMetrics are the per-layer metrics of the final JSON line (-trace 1),
// in BENCHMARK.json order. A layer the workload never crosses reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"graph.atlas_fill_s", "s"}, {"graph.atlas_mib", "MiB"}, {"graph.atlas_serve_ns_per_vr", "ns"},
	{"graph.implicit_ns_per_vr", "ns"}, {"graph.vr_per_vertex", "count"},
	{"ids.draw_ns_per_vertex", "ns"}, {"ids.walk_ns_per_rep", "ns"}, {"ids.unrank_us_per_block", "us"},
	{"ids.reps", "count"},
	{"local.kernel_ns_per_vertex", "ns"}, {"local.view_ns_per_vertex", "ns"}, {"local.decide_ns_per_rep", "ns"},
	{"sweep.residual_s", "s"}, {"sweep.blocks", "count"}, {"sweep.codec_bytes", "bytes"},
	{"sweep.codec_us", "us"}, {"sweep.merge_us", "us"},
	{"sweep.store.put_per_job", "count"}, {"sweep.store.get_per_job", "count"},
	{"sweep.store.list_per_job", "count"}, {"sweep.store.delete_per_job", "count"},
	{"sweep.store.put_ms", "ms"}, {"sweep.store.get_ms", "ms"}, {"sweep.store.list_ms", "ms"},
	{"sweep.store.list_yield", "ratio"}, {"sweep.store.busy_share", "ratio"}, {"sweep.store.errors", "count"},
	{"sweep.lease.lease_puts_per_job", "count"}, {"sweep.lease.done_puts_per_job", "count"},
	{"sweep.lease.duplicate_share", "ratio"},
	{"serve.http.submit_ms", "ms"}, {"serve.start_delay_ms", "ms"}, {"serve.execute_ms", "ms"},
	{"serve.finish_ms", "ms"}, {"serve.table_polls_per_job", "count"},
	{"trace.overhead_share", "ratio"},
}

// scale selects input sizes: full for the benchmark, tiny for the smoke
// test.
type scale int

const (
	full scale = iota
	tiny
)

// config is one workload run's parameters.
type config struct {
	seed   int64
	budget time.Duration // how long the timed loop measures
	trace  bool
	scale  scale
	tr     *tracer // nil unless trace
	// corrupt, set only by the smoke test, damages one output after it is
	// produced so the checks must catch it.
	corrupt bool
}

// metric is one named measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report is what a workload run produces.
type report struct {
	e2e   []metric // end-to-end metrics, including workload-specific extras
	layer []metric // per-layer metrics (traced runs only)
	notes []string // extra report lines
	checks
}

// checks counts output checks: every attempted operation whose output was
// verified, and those that failed.
type checks struct {
	attempted, failed int
	firstErr          error
}

func (c *checks) check(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
}

func (r *report) add(name string, v float64, unit string) {
	r.e2e = append(r.e2e, metric{name, v, unit})
}

func (r *report) addLayer(name string, v float64, unit string) {
	r.layer = append(r.layer, metric{name, v, unit})
}

var workloads = map[string]func(cfg config) (*report, error){
	"sampled-cycle":  runSampled,
	"implicit-large": runImplicit,
	"exact-quotient": runExact,
	"service-jobs":   runService,
}

var workloadOrder = []string{"sampled-cycle", "implicit-large", "exact-quotient", "service-jobs"}

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass")
	spans := flag.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>-<seed>.json)")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	ok := true
	for _, name := range names {
		if _, found := workloads[name]; !found {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v or all)\n", name, workloadOrder)
			os.Exit(2)
		}
		cfg := config{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1}
		spanPath := *spans
		if spanPath == "" {
			spanPath = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", name, *seed))
		}
		res, err := runOne(name, cfg, spanPath, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs a workload, prints its report and JSON line to w, and writes
// the span file of a traced run.
func runOne(name string, cfg config, spanPath string, w io.Writer) (*result, error) {
	if cfg.trace {
		cfg.tr = newTracer(fmt.Sprintf("%s-seed%d-pid%d", name, cfg.seed, os.Getpid()))
	}
	h0, err := readTicks()
	if err != nil {
		return nil, err
	}
	rep, err := workloads[name](cfg)
	if err != nil {
		return nil, err
	}
	h1, err := readTicks()
	if err != nil {
		return nil, err
	}
	// Time the hypervisor gave to other machines inflates every wall time
	// of the run. The timed loops leave contended iterations out of their
	// medians; a run that was contended as a whole is flagged.
	steal := h1.stealSince(h0)
	rep.add("host_steal_share", steal, "ratio")
	if steal > stealLimit {
		msg := fmt.Sprintf("host contended: the hypervisor took %.1f%% of the CPU ticks (limit %.0f%%); compare these times only with runs made alongside them",
			100*steal, 100*stealLimit)
		rep.notes = append(rep.notes, msg)
		fmt.Fprintln(os.Stderr, "perfbench: "+msg)
	}
	if cfg.trace {
		if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
			return nil, fmt.Errorf("span dir: %w", err)
		}
		selfs, err := cfg.tr.writeFile(spanPath)
		if err != nil {
			return nil, err
		}
		for _, s := range selfs {
			rep.notes = append(rep.notes, fmt.Sprintf("self time %-12s %10.6f s", s.Layer, s.Seconds))
		}
		rep.notes = append(rep.notes, "spans written to "+spanPath)
	}
	errRate := float64(rep.failed) / float64(max(rep.attempted, 1))
	rep.add("error_rate", errRate, "ratio")

	fmt.Fprintf(w, "== perfbench %s seed=%d trace=%v\n", name, cfg.seed, cfg.trace)
	for _, m := range rep.e2e {
		fmt.Fprintf(w, "%-32s %16.6f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range rep.layer {
		fmt.Fprintf(w, "%-32s %16.6f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	if rep.firstErr != nil {
		fmt.Fprintf(w, "first failed check: %v\n", rep.firstErr)
	}

	res := &result{
		Correct:   rep.failed == 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	if cfg.trace {
		have := map[string]metric{}
		for _, m := range rep.layer {
			have[m.Name] = m
		}
		for _, lm := range layerMetrics {
			res.Metrics[lm.name] = metricValue{have[lm.name].Value, lm.unit}
		}
	} else {
		have := map[string]metric{}
		for _, m := range rep.e2e {
			have[m.Name] = m
		}
		for _, n := range e2eNames {
			m, ok := have[n]
			if !ok {
				return nil, fmt.Errorf("workload did not measure %s", n)
			}
			res.Metrics[n] = metricValue{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(line))
	return res, nil
}
