package serve

// The remote-fleet acceptance suite: registration and assignment over
// the worker API, TTL liveness and expiry, remote-only completion (the
// supervisor merges what a fleet it never spawned put in the store),
// stall parking when the fleet goes dark, and — the core bar — a remote
// run through a fault-injecting chaos proxy serving bytes identical to
// the single-process CLI.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/netchaos"
	"repro/internal/sweep"
)

// remoteOptions is fastOptions for a coordinator that spawns no workers.
func remoteOptions(st sweep.Store) Options {
	o := fastOptions(st)
	o.RemoteOnly = true
	o.PollInterval = 2 * time.Millisecond
	o.WorkerTTL = 250 * time.Millisecond
	return o
}

// Registration, polling and assignment: a worker registers, pulls the
// running job idempotently, reports done, and shows up in the registry
// and the job's status.
func TestWorkerRegistrationAndAssignment(t *testing.T) {
	st := sweep.NewMemStore()
	c, err := New(remoteOptions(st))
	if err != nil {
		t.Fatal(err)
	}
	// No work yet: a registered worker polls empty.
	w1 := c.RegisterWorker("alpha")
	if w1.ID == "" || !w1.Live {
		t.Fatalf("registration = %+v", w1)
	}
	if a, err := c.WorkerPoll(w1.ID); err != nil || a != nil {
		t.Fatalf("poll with no jobs = %+v, %v; want nil, nil", a, err)
	}

	js, err := c.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	// The job admits and starts running with no local workers.
	waitState := func(want State) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			s, _ := c.Status(js.ID)
			if s.State == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job never reached %s (now %s)", want, s.State)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitState(StateRunning)

	a, err := c.WorkerPoll(w1.ID)
	if err != nil || a == nil {
		t.Fatalf("poll = %v, %v", a, err)
	}
	if a.Job != js.ID || a.Experiment != "E6" || a.Grains != 4 {
		t.Fatalf("assignment = %+v, want job %s on E6 with 4 grains", a, js.ID)
	}
	// Polling again while the job runs is an idempotent heartbeat.
	a2, err := c.WorkerPoll(w1.ID)
	if err != nil || a2 == nil || a2.Job != a.Job {
		t.Fatalf("re-poll = %+v, %v; want the same assignment", a2, err)
	}
	// The assignment is visible in job status and the registry.
	if s, _ := c.Status(js.ID); s.RemoteWorkers != 1 {
		t.Errorf("status.RemoteWorkers = %d, want 1", s.RemoteWorkers)
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].Job != js.ID || ws[0].Polls != 3 {
		t.Errorf("registry = %+v, want alpha on the job with 3 polls", ws)
	}

	// A second worker spreads onto the same (only) job.
	w2 := c.RegisterWorker("beta")
	if a3, err := c.WorkerPoll(w2.ID); err != nil || a3 == nil || a3.Job != js.ID {
		t.Fatalf("second worker's poll = %+v, %v", a3, err)
	}

	// Reports from unknown ids bounce; known ones record stats.
	if err := c.WorkerDone("r99-ghost", js.ID, sweep.LeaseStats{}, ""); err != ErrUnknownWorker {
		t.Errorf("done from ghost = %v, want ErrUnknownWorker", err)
	}
	if err := c.WorkerDone(w1.ID, js.ID, sweep.LeaseStats{Grains: 7, Steals: 2}, ""); err != nil {
		t.Fatal(err)
	}
	for _, wk := range c.Workers() {
		if wk.ID == w1.ID && (wk.Grains != 7 || wk.Steals != 2 || wk.Job != "") {
			t.Errorf("after done: %+v, want 7 grains, 2 steals, no assignment", wk)
		}
	}
	if got := c.remoteSteals.Load(); got != 2 {
		t.Errorf("remoteSteals = %d, want 2", got)
	}

	// Deregistration is idempotent and removes the record.
	c.DeregisterWorker(w2.ID)
	c.DeregisterWorker(w2.ID)
	if ws := c.Workers(); len(ws) != 1 || ws[0].ID != w1.ID {
		t.Errorf("registry after deregister = %+v", ws)
	}
}

// TTL liveness: a silent worker turns dead at TTL, is forgotten at 2×TTL,
// and its poll after the purge demands re-registration.
func TestWorkerTTLExpiry(t *testing.T) {
	st := sweep.NewMemStore()
	o := remoteOptions(st)
	o.WorkerTTL = 30 * time.Millisecond
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	w := c.RegisterWorker("quiet")
	deadline := time.Now().Add(5 * time.Second)
	for { // dead at TTL, still listed
		ws := c.Workers()
		if len(ws) == 0 {
			break // already past 2×TTL on a slow machine; fine
		}
		if !ws[0].Live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never turned dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for { // forgotten at 2×TTL
		if len(c.Workers()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.remoteExpired.Load() == 0 {
		t.Error("expiry not counted")
	}
	if _, err := c.WorkerPoll(w.ID); err != ErrUnknownWorker {
		t.Errorf("poll after expiry = %v, want ErrUnknownWorker", err)
	}
}

// Remote-only completion: an in-process "remote" executor runs the job
// over an HTTPStore against the coordinator's own /store API — through a
// chaos proxy dropping responses and injecting errors — and the
// supervisor, which spawned nothing, merges and serves the exact CLI
// bytes once coverage completes.
func TestRemoteOnlyJobCompletesThroughChaosProxy(t *testing.T) {
	st := sweep.NewMemStore()
	c, err := New(remoteOptions(st))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	proxy, err := netchaos.New(srv.URL, netchaos.Faults{Seed: 41, ErrorEvery: 13, DropEvery: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	js, err := c.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	w := c.RegisterWorker("inproc")
	var a *Assignment
	deadline := time.Now().Add(5 * time.Second)
	for a == nil {
		if a, err = c.WorkerPoll(w.ID); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("never assigned")
		}
		time.Sleep(time.Millisecond)
	}

	// The worker side, exactly as cmd/sweepworker wires it: an HTTPStore
	// over the chaos proxy, retried by the lease executor.
	e, err := experiments.Get(a.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTestTimeout()
	defer cancel()
	hs := sweep.NewHTTPStore(proxy.URL() + "/store").WithTimeout(5 * time.Second)
	stats, err := experiments.RunLeasedSweeps(ctx, e, a.Config, hs, sweep.LeaseOptions{
		Worker: w.ID, GrainsPerSize: a.Grains, StoreRetries: 5,
		Retry: sweep.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("remote run through chaos proxy: %v", err)
	}
	if err := c.WorkerDone(w.ID, a.Job, stats, ""); err != nil {
		t.Fatal(err)
	}

	fin := waitDone(t, c, js.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	table, err := c.Table(js.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := cliBytes(t, "E6", testConfig); !bytes.Equal(table, want) {
		t.Errorf("remote table differs from CLI bytes\nwant:\n%s\ngot:\n%s", want, table)
	}
	if ps := proxy.Stats(); ps.Errors == 0 && ps.Drops == 0 {
		t.Errorf("the chaos proxy injected nothing (%+v); the test proved less than it claims", ps)
	}
}

// A remote-only job whose fleet never shows up (or froze behind a
// partition) is parked by the breaker after MaxAttempts stall verdicts,
// and the stalls are counted.
func TestRemoteStallParksJob(t *testing.T) {
	st := sweep.NewMemStore()
	o := remoteOptions(st)
	o.WedgeTimeout = 10 * time.Millisecond
	o.MaxAttempts = 2
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	js, err := c.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, c, js.ID)
	if fin.State != StateFailed {
		t.Fatalf("state = %s, want failed", fin.State)
	}
	if !strings.Contains(fin.Error, "no remote progress") {
		t.Errorf("parked error = %q, want a remote-stall diagnosis", fin.Error)
	}
	if c.remoteStalls.Load() < 2 {
		t.Errorf("remoteStalls = %d, want >= 2", c.remoteStalls.Load())
	}
}

// The worker HTTP API end to end: register, poll, done, deregister, the
// registry listing, and the remote counters in /metrics.
func TestWorkerHTTPAPI(t *testing.T) {
	st := sweep.NewMemStore()
	c, err := New(remoteOptions(st))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}

	resp, body := post("/workers", `{"name":"api worker/1"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var w WorkerInfo
	if err := json.Unmarshal(body, &w); err != nil {
		t.Fatal(err)
	}
	// The slash and space cannot survive into a store-name-safe id.
	if strings.ContainsAny(w.ID, "/ ") {
		t.Errorf("id %q is not store-name-safe", w.ID)
	}

	resp, _ = post("/workers/"+w.ID+"/poll", "")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("poll with no jobs: %d, want 204", resp.StatusCode)
	}
	js, err := c.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	var a Assignment
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = post("/workers/"+w.ID+"/poll", "")
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &a); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("poll never returned an assignment")
		}
		time.Sleep(time.Millisecond)
	}
	if a.Job != js.ID {
		t.Fatalf("assignment %+v, want job %s", a, js.ID)
	}

	resp, body = post("/workers/"+w.ID+"/done",
		fmt.Sprintf(`{"job":%q,"stats":{"Grains":3,"Steals":1},"error":""}`, a.Job))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("done: %d %s", resp.StatusCode, body)
	}

	resp, body = post("/workers/r0-ghost/poll", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost poll: %d %s, want 404", resp.StatusCode, body)
	}

	wresp, err := http.Get(srv.URL + "/workers")
	if err != nil {
		t.Fatal(err)
	}
	wbody, _ := io.ReadAll(wresp.Body)
	wresp.Body.Close()
	var listing struct {
		Workers []WorkerInfo `json:"workers"`
	}
	if err := json.Unmarshal(wbody, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Workers) != 1 || listing.Workers[0].Grains != 3 {
		t.Errorf("GET /workers = %s", wbody)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"sweepd_remote_workers_registered_total 1",
		"sweepd_remote_workers_live 1",
		"sweepd_remote_steals_total 1",
		"sweepd_remote_workers_expired_total 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/workers/"+w.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("deregister: %d", dresp.StatusCode)
	}
	if ws := c.Workers(); len(ws) != 0 {
		t.Errorf("registry after deregister = %+v", ws)
	}
}

// /healthz probes the store: a coordinator whose medium vanished turns
// unhealthy even though its process is fine.
func TestHealthzProbesStore(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	st, err := sweep.NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(remoteOptions(st))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	check := func(wantCode int, wantStatus string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantCode || !strings.Contains(string(body), wantStatus) {
			t.Errorf("healthz = %d %s, want %d with %q", resp.StatusCode, body, wantCode, wantStatus)
		}
	}
	check(http.StatusOK, `"ok"`)
	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	check(http.StatusServiceUnavailable, "store-unreachable")
}

// Mixed mode still works: local workers and a remote executor share one
// job's lease space, and the table stays byte-identical.
func TestMixedLocalAndRemoteWorkers(t *testing.T) {
	st := sweep.NewMemStore()
	o := fastOptions(st) // local workers ON
	o.WorkerTTL = time.Second
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	js, err := c.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	// A remote worker joins the same run over HTTP while local workers run.
	w := c.RegisterWorker("helper")
	go func() {
		a, err := c.WorkerPoll(w.ID)
		if err != nil || a == nil {
			return // the local fleet already finished; nothing to help with
		}
		e, gerr := experiments.Get(a.Experiment)
		if gerr != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		hs := sweep.NewHTTPStore(srv.URL + "/store").WithTimeout(5 * time.Second)
		experiments.RunLeasedSweeps(ctx, e, a.Config, hs, sweep.LeaseOptions{
			Worker: w.ID, GrainsPerSize: a.Grains, StoreRetries: 3,
			Retry: sweep.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		})
	}()

	fin := waitDone(t, c, js.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	table, err := c.Table(js.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := cliBytes(t, "E6", testConfig); !bytes.Equal(table, want) {
		t.Errorf("mixed-mode table differs from CLI bytes")
	}
}
