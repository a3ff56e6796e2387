package main

// The remote-fleet acceptance suite. The core bar: a coordinator plus
// three sweepworker processes, each behind its own fault-injecting
// network proxy, one SIGKILLed mid-run and another partitioned away —
// and the table the coordinator finally serves is byte-for-byte the
// single-process result.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/netchaos"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// TestMain lets this test binary impersonate the real sweepworker: with
// SWEEPWORKER_BE_MAIN=1 it runs main() on its arguments and exits. The
// chaos test below uses that to spawn genuine worker processes it can
// SIGKILL and partition without mercy.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEPWORKER_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestFlagValidation(t *testing.T) {
	if err := run(context.Background(), nil); err == nil {
		t.Error("run without -coordinator accepted")
	}
	if err := run(context.Background(), []string{"-coordinator", "http://x", "-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

// A worker whose coordinator never answers gives up after its failure
// budget with the unreachable diagnosis — exit 4 through cli.Report,
// with the offending URL in the cause chain.
func TestUnreachableCoordinatorExitsFour(t *testing.T) {
	err := run(context.Background(), []string{
		"-coordinator", "http://127.0.0.1:1", // reserved port: nothing listens
		"-max-failures", "2",
	})
	if err == nil {
		t.Fatal("run against a dead coordinator succeeded")
	}
	var un *sweep.UnreachableError
	if !errors.As(err, &un) || !strings.Contains(un.URL, "127.0.0.1:1") {
		t.Fatalf("err = %v, want an *UnreachableError naming the coordinator", err)
	}
	var out strings.Builder
	if code := cli.Report(&out, "sweepworker", err); code != cli.ExitUnreachable {
		t.Errorf("exit code = %d, want %d\n%s", code, cli.ExitUnreachable, out.String())
	}
}

// Each store operation gets exactly -retries retries: a store whose List
// always answers 503 sees 1 + retries List requests before the assignment
// fails, not a product of two nested retry budgets; and the run manifest
// rides out a transient fault under the same policy as the lease records.
func TestStoreRetryBudget(t *testing.T) {
	cases := []struct {
		name    string
		fail    func(seen int32) bool // seen counts matching requests, this one included
		match   func(r *http.Request) bool
		wantErr bool
		want    int32
	}{
		{
			name:    "list always 503",
			match:   func(r *http.Request) bool { return strings.Trim(r.URL.Path, "/") == "" },
			fail:    func(int32) bool { return true },
			wantErr: true,
			want:    3, // one try and -retries 2
		},
		{
			name: "manifest get 503 once",
			match: func(r *http.Request) bool {
				return r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/manifest")
			},
			fail: func(seen int32) bool { return seen == 1 },
			want: 2, // the fault and its retry
		},
		{
			name: "manifest put 503 once",
			match: func(r *http.Request) bool {
				return r.Method == http.MethodPut && strings.HasSuffix(r.URL.Path, "/manifest")
			},
			fail: func(seen int32) bool { return seen == 1 },
			want: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var matched atomic.Int32
			objects := sweep.StoreHandler(sweep.NewMemStore())
			mux := http.NewServeMux()
			mux.Handle("/store/", http.StripPrefix("/store/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.match(r) && tc.fail(matched.Add(1)) {
					http.Error(w, "store unavailable", http.StatusServiceUnavailable)
					return
				}
				objects.ServeHTTP(w, r)
			})))
			mux.HandleFunc("/workers/", func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusNoContent)
			})
			srv := httptest.NewServer(mux)
			defer srv.Close()

			w := &worker{
				api:     newAPIClient(srv.URL, 5*time.Second),
				store:   sweep.NewHTTPStore(srv.URL + "/store").WithTimeout(5 * time.Second),
				name:    "budget",
				poll:    time.Hour,
				retries: 2,
				backoff: sweep.Backoff{Base: time.Millisecond, Seed: 1},
				logf:    t.Logf,
			}
			a := &serve.Assignment{Job: "j", Experiment: "E6", Grains: 2,
				Config: experiments.Config{Seed: 1, Sizes: []int{16}, Trials: 4}}
			err := w.execute(context.Background(), "budget-1", a)
			if (err != nil) != tc.wantErr {
				t.Fatalf("execute error = %v, want error %v", err, tc.wantErr)
			}
			if got := matched.Load(); got != tc.want {
				t.Errorf("matching store requests = %d, want %d", got, tc.want)
			}
		})
	}
}

// Draining retries a deregistration that hits a transient coordinator
// fault, so a SIGTERM leaves the registry empty even over a faulty path.
func TestDrainRetriesDeregister(t *testing.T) {
	var deletes atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodDelete || r.URL.Path != "/workers/w-1" {
			http.Error(w, "unexpected request", http.StatusBadRequest)
			return
		}
		if deletes.Add(1) == 1 {
			http.Error(w, "bad gateway", http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	w := &worker{
		api:     newAPIClient(srv.URL, 5*time.Second),
		backoff: sweep.Backoff{Base: time.Millisecond, Seed: 1},
		logf:    t.Logf,
	}
	if err := w.drain("w-1"); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := deletes.Load(); got != 2 {
		t.Errorf("DELETE requests = %d, want 2 (the 502 and its retry)", got)
	}
}

// chaosConfig sustains roughly a second of compute single-process (avgbench
// -e E6 -sizes 1024,2048 -trials 12000 -seed 23: 1.0–1.1 s on a 2-core
// x86-64 host), so the distributed run is long enough to SIGKILL and
// partition mid-flight.
var chaosConfig = experiments.Config{Seed: 23, Sizes: []int{1024, 2048}, Trials: 12000}

// expectedBytes renders what the coordinator must serve — the avgbench
// CLI bytes for the config.
func expectedBytes(t *testing.T, id string, cfg experiments.Config) []byte {
	t.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "== %s: %s\n   claim: %s\n", e.ID, e.Title, e.Claim)
	buf.WriteString(tab.Render())
	buf.WriteByte('\n')
	return buf.Bytes()
}

// countDoneObjects counts durable per-grain completion records under a
// DirStore root — the "work has landed" signal the kill waits for.
func countDoneObjects(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.Contains(filepath.ToSlash(path), "/done/") {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// safeBuf is a self-locking buffer for subprocess stderr: exec spawns a
// copier goroutine for non-file writers, so both Write and String must
// synchronize.
type safeBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *safeBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startWorker spawns a real sweepworker subprocess pointed at base.
func startWorker(t *testing.T, name, base string, logs *safeBuf) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0],
		"-coordinator", base, "-name", name,
		"-poll", "50ms", "-timeout", "5s", "-retries", "8", "-max-failures", "100")
	cmd.Env = append(os.Environ(), "SWEEPWORKER_BE_MAIN=1")
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// The acceptance bar: a remote-only coordinator and three sweepworker
// processes, each behind its own chaos proxy. One worker is SIGKILLed
// after the first durable grain, a second is partitioned away mid-run
// (long enough to expire its registration), the third rides injected
// errors, drops and latency the whole way — and the served E6 table is
// byte-identical to the single-process run.
func TestFleetSurvivesSIGKILLAndPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short mode")
	}
	dir := t.TempDir()
	st, err := sweep.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := serve.New(serve.Options{
		Store:        st,
		RemoteOnly:   true,
		Grains:       8,
		WorkerTTL:    750 * time.Millisecond,
		PollInterval: 50 * time.Millisecond,
		WedgeTimeout: -1, // the partition window must not park the job
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// One proxy per worker, so faults hit each worker's network alone.
	// Worker 0 (the SIGKILL victim) gets a clean path; worker 1's path
	// will be partitioned; worker 2 lives with seeded errors, dropped
	// responses and latency throughout.
	mkProxy := func(f netchaos.Faults) *netchaos.Proxy {
		p, perr := netchaos.New(srv.URL, f)
		if perr != nil {
			t.Fatal(perr)
		}
		t.Cleanup(p.Close)
		return p
	}
	p0 := mkProxy(netchaos.Faults{Seed: 101})
	p1 := mkProxy(netchaos.Faults{Seed: 102, MaxLatency: 2 * time.Millisecond})
	p2 := mkProxy(netchaos.Faults{Seed: 103, ErrorEvery: 29, DropEvery: 37, MaxLatency: 2 * time.Millisecond})

	js, err := c.Submit("E6", chaosConfig)
	if err != nil {
		t.Fatal(err)
	}

	var logs [3]safeBuf
	workers := []*exec.Cmd{
		startWorker(t, "w0", p0.URL(), &logs[0]),
		startWorker(t, "w1", p1.URL(), &logs[1]),
		startWorker(t, "w2", p2.URL(), &logs[2]),
	}
	defer func() {
		for _, w := range workers {
			if w != nil && w.Process != nil {
				w.Process.Kill()
				w.Wait()
			}
		}
	}()

	// Wait for the first durable completion, then kill worker 0 without
	// warning and cut worker 1's network for beyond 2×TTL.
	deadline := time.Now().Add(60 * time.Second)
	for countDoneObjects(t, dir) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no completion records within 60s\nw0: %s\nw1: %s\nw2: %s",
				logs[0].String(), logs[1].String(), logs[2].String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := workers[0].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	workers[0].Wait()
	workers[0] = nil
	p1.PartitionFor(1600 * time.Millisecond) // > 2×TTL: w1's registration expires

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	fin, err := c.Wait(ctx, js.ID)
	if err != nil {
		t.Fatalf("job never finished: %v\nw1: %s\nw2: %s", err, logs[1].String(), logs[2].String())
	}
	if fin.State != serve.StateDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	table, err := c.Table(js.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := expectedBytes(t, "E6", chaosConfig); !bytes.Equal(table, want) {
		t.Errorf("fleet table differs from single-process bytes\nwant %d bytes, got %d", len(want), len(table))
	}

	// The chaos actually happened: worker 2's proxy injected faults, and
	// worker 1's partition refused connections.
	if s := p2.Stats(); s.Errors == 0 && s.Drops == 0 {
		t.Errorf("worker 2's proxy injected nothing: %+v", s)
	}
	if s := p1.Stats(); s.Partitioned == 0 {
		t.Logf("note: worker 1 sent nothing during its partition window (%+v)", s)
	}

	// Survivors drain on SIGTERM: exit 0, registrations deleted.
	for _, w := range workers[1:] {
		w.Process.Signal(syscall.SIGTERM)
	}
	for i, w := range workers[1:] {
		if err := w.Wait(); err != nil {
			t.Errorf("worker %d did not drain cleanly: %v\nlog: %s", i+1, err, logs[i+1].String())
		}
	}
	workers = nil
	if ws := c.Workers(); len(ws) != 0 {
		t.Errorf("registry after drain = %+v, want empty", ws)
	}
}

// A worker with nothing to do still registers, heartbeats, and drains
// out cleanly on SIGTERM, deleting its registration.
func TestIdleWorkerDrainsOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	st := sweep.NewMemStore()
	c, err := serve.New(serve.Options{Store: st, RemoteOnly: true, WorkerTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var logs safeBuf
	w := startWorker(t, "idler", srv.URL, &logs)
	deadline := time.Now().Add(10 * time.Second)
	for len(c.Workers()) == 0 {
		if time.Now().After(deadline) {
			w.Process.Kill()
			w.Wait()
			t.Fatalf("worker never registered\n%s", logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := w.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatalf("idle worker exit: %v\n%s", err, logs.String())
	}
	if ws := c.Workers(); len(ws) != 0 {
		t.Errorf("registry after drain = %+v, want empty", ws)
	}
}
