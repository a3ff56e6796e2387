package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Run    string `json:"run"`    // run-wide id shared by every span
	Trace  string `json:"trace,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Units  int64  `json:"units,omitempty"` // work items the span covers
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span belongs to: the name up to the first '.',
// except for the store and lease sub-layers of sweep.
func (s span) layer() string {
	for _, sub := range []string{"sweep.store", "sweep.lease"} {
		if strings.HasPrefix(s.Name, sub+".") {
			return sub
		}
	}
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so timed runs pass nil and pay only a nil check.
type tracer struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// record adds a finished span and returns its id.
func (t *tracer) record(name string, parent int64, start, end time.Time, units int64) int64 {
	return t.recordTrace(name, "", parent, start, end, units)
}

// recordTrace is record with a request identifier shared by the spans of
// one request.
func (t *tracer) recordTrace(name, trace string, parent int64, start, end time.Time, units int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Run: t.run, Trace: trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Units: units})
	return t.next
}

// open starts a span whose end is set by the returned function; children
// may reference the id before it closes.
func (t *tracer) open(name string, parent int64) (int64, func(units int64)) {
	if t == nil {
		return 0, func(int64) {}
	}
	start := time.Now()
	t.mu.Lock()
	t.next++
	id := t.next
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: start.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id, func(units int64) {
		end := time.Now().Sub(t.t0).Nanoseconds()
		t.mu.Lock()
		defer t.mu.Unlock()
		for i := len(t.spans) - 1; i >= 0; i-- {
			if t.spans[i].ID == id {
				t.spans[i].End, t.spans[i].Units = end, units
				return
			}
		}
	}
}

// layerSelf is one layer's self time: its spans' durations minus the part
// of each covered by its child spans.
type layerSelf struct {
	Layer   string  `json:"layer"`
	Seconds float64 `json:"self_s"`
}

// selfTimes computes every span's self time and totals it by layer.
func selfTimes(spans []span) []layerSelf {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byLayer := map[string]time.Duration{}
	for _, s := range spans {
		byLayer[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	out := make([]layerSelf, 0, len(byLayer))
	for l, d := range byLayer {
		out = append(out, layerSelf{l, d.Seconds()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// spanFile is the JSON document a traced run writes.
type spanFile struct {
	Run   string      `json:"run"`
	Self  []layerSelf `json:"self"`
	Spans []span      `json:"spans"`
}

// writeFile writes every span and the per-layer self times to path.
func (t *tracer) writeFile(path string) ([]layerSelf, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	doc := spanFile{Run: t.run, Self: selfTimes(spans), Spans: spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return doc.Self, nil
}
