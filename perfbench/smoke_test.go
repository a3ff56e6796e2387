package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// extras are the workload-specific end-to-end metrics each report must
// print besides the BENCHMARK.json ones.
var extras = map[string][]string{
	"sampled-cycle":  {"wall_1w_s", "median_iterations", "vmhwm_mib", "host_steal_share", "error_rate"},
	"implicit-large": {"wall_1w_s", "median_iterations", "vmhwm_mib", "host_steal_share", "error_rate"},
	"exact-quotient": {"perms_per_s", "wall_1w_s", "median_iterations", "vmhwm_mib", "host_steal_share", "error_rate"},
	"service-jobs": {"job_p50_s", "job_tail_s", "job_tail_percentile", "job_samples", "cached_p50_s",
		"jobs_per_s", "latency_growth", "median_rounds", "vmhwm_mib", "host_steal_share", "error_rate"},
}

// smoke runs one workload at tiny sizes and returns its report lines and
// final JSON line.
func smoke(t *testing.T, name string, trace, corrupt bool) ([]string, result, string) {
	t.Helper()
	spans := filepath.Join(t.TempDir(), "spans.json")
	var out bytes.Buffer
	cfg := config{seed: 5, scale: tiny, trace: trace, corrupt: corrupt}
	if _, err := runOne(name, cfg, spans, &out); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result JSON: %v\n%s", name, err, out.String())
	}
	return lines[:len(lines)-1], res, spans
}

// printed reports whether the report has a line for the metric with its
// unit.
func printed(lines []string, name string) bool {
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 3 && f[0] == name {
			return true
		}
	}
	return false
}

func TestEveryMetricEmitted(t *testing.T) {
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			lines, res, _ := smoke(t, name, false, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("checks failed: %+v\n%s", res, strings.Join(lines, "\n"))
			}
			if len(res.Metrics) != len(e2eNames) {
				t.Errorf("JSON has %d metrics, want %d", len(res.Metrics), len(e2eNames))
			}
			for _, m := range e2eNames {
				v, ok := res.Metrics[m]
				if !ok || v.Unit == "" || v.Value <= 0 {
					t.Errorf("JSON metric %s = %+v (present %v), want a positive value with a unit", m, v, ok)
				}
			}
			for _, m := range append(append([]string(nil), e2eNames...), extras[name]...) {
				if !printed(lines, m) {
					t.Errorf("report does not print %s with its unit", m)
				}
			}
		})
	}
}

func TestTracedRun(t *testing.T) {
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			lines, res, spans := smoke(t, name, true, false)
			if !res.Correct {
				t.Fatalf("checks failed: %+v\n%s", res, strings.Join(lines, "\n"))
			}
			if len(res.Metrics) != len(layerMetrics) {
				t.Errorf("JSON has %d metrics, want %d", len(res.Metrics), len(layerMetrics))
			}
			for _, m := range layerMetrics {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("JSON metric %s = %+v (present %v), want unit %s", m.name, v, ok, m.unit)
				}
			}
			if !printed(lines, "trace.overhead_share") {
				t.Error("report does not print the tracing overhead")
			}
			raw, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var doc spanFile
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("span file does not parse: %v", err)
			}
			if len(doc.Spans) == 0 || len(doc.Self) == 0 {
				t.Fatalf("span file has %d spans and %d self times", len(doc.Spans), len(doc.Self))
			}
			for _, s := range doc.Spans {
				if s.End < s.Start || s.Run != doc.Run {
					t.Errorf("bad span %+v", s)
				}
			}
			for _, s := range doc.Self {
				if s.Seconds < 0 {
					t.Errorf("layer %s self time %v < 0", s.Layer, s.Seconds)
				}
			}
		})
	}
}

// TestCorruptionCaught damages one output per workload — a radius, an
// exact statistic, a served table — and requires the checks to count it.
func TestCorruptionCaught(t *testing.T) {
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			lines, res, _ := smoke(t, name, false, true)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted output not caught: %+v", res)
			}
			for _, l := range lines {
				if f := strings.Fields(l); len(f) == 3 && f[0] == "error_rate" {
					if f[1] == "0.000000" {
						t.Errorf("error_rate %s, want > 0", f[1])
					}
					return
				}
			}
			t.Error("no error_rate line")
		})
	}
}

// TestPhaseOrderCaught gives storeLayers one job whose last done/ Put ends
// after the client already had the table, and requires the phase check to
// count it while it passes a job in order.
func TestPhaseOrderCaught(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	put := func(name string, start, end int) storeOp {
		kind, job := classify(name)
		return storeOp{op: "Put", name: name, kind: kind, job: job, start: at(start), end: at(end)}
	}
	st := newTimedStore(nil, nil, nil)
	st.ops = []storeOp{
		put("lease/good/plan", 2, 3), put("lease/good/done/64-0", 4, 5),
		put("lease/bad/plan", 12, 13), put("lease/bad/done/64-0", 14, 19),
	}
	r := &round{wall: 20 * time.Millisecond, store: st, jobs: []*jobRun{
		{index: 0, key: "good", submit: at(0), accepted: at(1), end: at(8)},
		{index: 1, key: "bad", submit: at(10), accepted: at(11), end: at(18)},
	}}
	var ck checks
	if err := storeLayers(r, &report{}, &ck); err != nil {
		t.Fatal(err)
	}
	if ck.attempted != 2 || ck.failed != 1 || ck.firstErr == nil || !strings.Contains(ck.firstErr.Error(), "job 1") {
		t.Fatalf("phase checks: %d attempted, %d failed, first error %v; want 2, 1, job 1", ck.attempted, ck.failed, ck.firstErr)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "sweep.Run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "graph.x", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "graph.y", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "ids.z", Start: 90, End: 120},
	}
	got := map[string]float64{}
	for _, s := range selfTimes(spans) {
		got[s.Layer] = s.Seconds * 1e9
	}
	// sweep: 100 - union{[10,60), [90,100)} = 40; graph: 30 + 30; ids: 30.
	want := map[string]float64{"sweep": 40, "graph": 60, "ids": 30}
	for l, w := range want {
		if got[l] < w-1e-6 || got[l] > w+1e-6 {
			t.Errorf("self time of %s = %v ns, want %v", l, got[l], w)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// lists in step: same names, same order, same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadOrder) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(doc.Workloads), len(workloadOrder))
	}
	for i, w := range doc.Workloads {
		if i < len(workloadOrder) && w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloadOrder[i])
		}
	}
	if len(doc.EndToEnd) != len(e2eNames) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(doc.EndToEnd), len(e2eNames))
	}
	_, res, _ := smoke(t, "exact-quotient", false, false)
	for i, m := range doc.EndToEnd {
		if m.Name != e2eNames[i] || res.Metrics[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, e2eNames[i], res.Metrics[m.Name].Unit)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range doc.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
