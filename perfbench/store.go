package main

import (
	"errors"
	"io/fs"
	"strings"
	"sync"
	"time"

	"repro/internal/sweep"
)

// storeOp is one call through timedStore.
type storeOp struct {
	op, name, kind, job string
	start, end          time.Time
	returned, objects   int // List only: names returned, objects stored
	failed              bool
}

// timedStore wraps the sweep.Store handed to serve.Options: it times and
// counts every Put, Get, List and Delete, classifies each key (plan,
// manifest, lease, done, cache), and records a span per call under the
// span of the job the key belongs to, in the sweep.lease layer for lease
// protocol records and in sweep.store otherwise.
type timedStore struct {
	inner sweep.Store
	tr    *tracer
	// jobSpan maps a job key to the client's open span for that job.
	jobSpan func(job string) int64

	mu      sync.Mutex
	ops     []storeOp
	objects map[string]bool
}

func newTimedStore(inner sweep.Store, tr *tracer, jobSpan func(string) int64) *timedStore {
	return &timedStore{inner: inner, tr: tr, jobSpan: jobSpan, objects: map[string]bool{}}
}

// classify names the store record kind of a key or list prefix, and the
// job key it belongs to. Lease runs live under lease/<job>/..., cached
// tables under cache/<job>/table.
func classify(name string) (kind, job string) {
	parts := strings.Split(name, "/")
	if len(parts) >= 2 && (parts[0] == "lease" || parts[0] == "cache") {
		job = parts[1]
	}
	switch {
	case parts[0] == "cache":
		return "cache", job
	case strings.HasSuffix(name, "/manifest"):
		return "manifest", job
	case strings.HasSuffix(name, "/plan"):
		return "plan", job
	case strings.Contains(name, "/lease/"):
		return "lease", job
	case strings.Contains(name, "/done/"):
		return "done", job
	}
	return "scan", job
}

func (s *timedStore) note(op, name string, start time.Time, err error, returned int) {
	end := time.Now()
	kind, job := classify(name)
	s.mu.Lock()
	switch {
	case err == nil && op == "Put":
		s.objects[name] = true
	case err == nil && op == "Delete":
		delete(s.objects, name)
	}
	s.ops = append(s.ops, storeOp{op: op, name: name, kind: kind, job: job, start: start, end: end,
		returned: returned, objects: len(s.objects), failed: err != nil})
	s.mu.Unlock()
	var parent int64
	if job != "" {
		parent = s.jobSpan(job)
	}
	// Lease-protocol records (plan, leases, completions) are the lease
	// layer's calls; the rest are the store's own.
	layer := "sweep.store."
	if kind == "plan" || kind == "lease" || kind == "done" {
		layer = "sweep.lease."
	}
	s.tr.recordTrace(layer+op, job, parent, start, end, 1)
}

func (s *timedStore) Put(name string, data []byte) error {
	t0 := time.Now()
	err := s.inner.Put(name, data)
	s.note("Put", name, t0, err, 0)
	return err
}

func (s *timedStore) Get(name string) ([]byte, error) {
	t0 := time.Now()
	data, err := s.inner.Get(name)
	// A missing object is an answer, not a store error.
	var noted error
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		noted = err
	}
	s.note("Get", name, t0, noted, 0)
	return data, err
}

func (s *timedStore) List(prefix string) ([]string, error) {
	t0 := time.Now()
	names, err := s.inner.List(prefix)
	s.note("List", prefix, t0, err, len(names))
	return names, err
}

func (s *timedStore) Delete(name string) error {
	t0 := time.Now()
	err := s.inner.Delete(name)
	s.note("Delete", name, t0, err, 0)
	return err
}

// snapshot returns the calls recorded so far.
func (s *timedStore) snapshot() []storeOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]storeOp(nil), s.ops...)
}
