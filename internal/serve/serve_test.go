package serve

// The robustness acceptance suite: every scenario checks the same thing —
// that the table a battered coordinator eventually serves is byte-for-byte
// the table a single healthy process computes — plus that degradation is
// graceful (parked, not hot-looped; refused, not queued forever).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// testConfig is small enough to finish in milliseconds but still spans
// multiple sizes and grains.
var testConfig = experiments.Config{Seed: 11, Sizes: []int{16, 24}, Trials: 12}

// cliBytes renders what `avgbench -e <id>` prints for the config — the
// bytes every served table must equal.
func cliBytes(t *testing.T, id string, cfg experiments.Config) []byte {
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

// fastOptions keeps supervision snappy for tests: quick polls, quick
// restarts, watchdog off unless a test turns it on.
func fastOptions(st sweep.Store) Options {
	return Options{
		Store:        st,
		Workers:      2,
		Grains:       4,
		WedgeTimeout: -1,
		Restart:      sweep.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		hookLease: func(_, _ string, o *sweep.LeaseOptions) {
			o.Retry = sweep.Backoff{Base: time.Millisecond}
		},
	}
}

func contextWithTestTimeout() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Second)
}

func waitDone(t *testing.T, c *Coordinator, id string) *JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return st
}

// A healthy submission runs to done, serves the CLI bytes, and identical
// submissions deduplicate into the same job.
func TestSubmitServesCLIBytesAndDedupes(t *testing.T) {
	st := sweep.NewMemStore()
	c, err := New(fastOptions(st))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if s1.ID != experiments.JobKey(mustGet(t, "E6"), testConfig) {
		t.Fatalf("job id = %q, want the normalized-config job key", s1.ID)
	}
	// An identical submission while queued/running joins the same job.
	s2, err := c.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if s2.ID != s1.ID || s2.Submissions != 2 {
		t.Fatalf("dedupe: id %q submissions %d, want %q and 2", s2.ID, s2.Submissions, s1.ID)
	}
	// Parallelism knobs must not change the identity.
	alt := testConfig
	alt.Workers = 7
	alt.Backend = "builder"
	if s3, err := c.Submit("E6", alt); err != nil || s3.ID != s1.ID {
		t.Fatalf("normalized identity: id %q err %v, want %q", s3.ID, err, s1.ID)
	}
	fin := waitDone(t, c, s1.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	table, err := c.Table(s1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := cliBytes(t, "E6", testConfig); !bytes.Equal(table, want) {
		t.Errorf("served table differs from CLI bytes\nwant:\n%s\ngot:\n%s", want, table)
	}
	// The finished table is durable in the store's result cache.
	if cached, err := st.Get(cacheKey(s1.ID)); err != nil || !bytes.Equal(cached, table) {
		t.Errorf("cached table = %d bytes, %v; want the served bytes", len(cached), err)
	}
}

// Submissions that cannot become jobs are refused with useful errors.
func TestSubmitRejections(t *testing.T) {
	c, err := New(fastOptions(sweep.NewMemStore()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("E99", testConfig); err == nil {
		t.Error("unknown experiment: want error")
	}
	var unknown *experiments.UnknownExperimentError
	if _, err := c.Submit("E99", testConfig); !errors.As(err, &unknown) {
		t.Errorf("unknown experiment error = %v, want *UnknownExperimentError", err)
	}
}

// A worker panic mid-grain is recovered, the slot restarts, and the final
// table is still byte-identical: crash-then-resume must not double-count.
func TestWorkerPanicRecoveredMidGrain(t *testing.T) {
	st := sweep.NewMemStore()
	opts := fastOptions(st)
	var bombs atomic.Int64
	bombs.Store(2) // the first two grain executions panic
	inner := opts.hookLease
	opts.hookLease = func(key, w string, o *sweep.LeaseOptions) {
		inner(key, w, o)
		o.Throttle = func(sweep.Block) {
			if bombs.Add(-1) >= 0 {
				panic("injected mid-grain crash")
			}
		}
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, c, s.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done after panic recovery", fin.State, fin.Error)
	}
	if fin.Restarts == 0 {
		t.Error("job survived injected panics with zero recorded restarts")
	}
	if c.panics.Load() == 0 {
		t.Error("panic counter not incremented")
	}
	table, err := c.Table(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := cliBytes(t, "E6", testConfig); !bytes.Equal(table, want) {
		t.Errorf("post-panic table differs from CLI bytes\nwant:\n%s\ngot:\n%s", want, table)
	}
}

// A job whose workers die every time is parked as failed after MaxAttempts
// consecutive deaths — a circuit breaker, not a hot crash loop.
func TestCircuitBreakerParksPersistentFailure(t *testing.T) {
	st := sweep.NewMemStore()
	opts := fastOptions(st)
	opts.MaxAttempts = 3
	var deaths atomic.Int64
	inner := opts.hookLease
	opts.hookLease = func(key, w string, o *sweep.LeaseOptions) {
		inner(key, w, o)
		o.Throttle = func(sweep.Block) {
			deaths.Add(1)
			panic("injected persistent crash")
		}
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, c, s.ID)
	if fin.State != StateFailed {
		t.Fatalf("state = %s, want failed", fin.State)
	}
	if _, err := c.Table(s.ID); err == nil {
		t.Error("Table of a parked job: want error")
	}
	var parked *ParkedError
	if _, jerr := c.Table(s.ID); !errors.As(jerr, &parked) {
		t.Fatalf("parked job error = %v, want *ParkedError in the chain", jerr)
	}
	if parked.Attempts != 3 {
		t.Errorf("parked after %d attempts, want 3", parked.Attempts)
	}
	var pe *PanicError
	if !errors.As(parked.Err, &pe) {
		t.Errorf("parked cause = %v, want *PanicError", parked.Err)
	}
	// Bounded retries: every worker death executes at most one grain probe,
	// so total injected deaths stay near MaxAttempts, never a hot loop.
	if n := deaths.Load(); n > 10 {
		t.Errorf("%d worker deaths for MaxAttempts=3: retry loop not bounded", n)
	}
	// Resubmitting the parked config reports the parked job, not a retry.
	again, err := c.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateFailed || again.ID != s.ID {
		t.Errorf("resubmit of parked job = %s/%s, want same job parked", again.ID, again.State)
	}
}

// Workers that neither die nor progress are detected by the heartbeat
// watchdog, cancelled, and replaced; the job still finishes with the CLI
// bytes because the replacements adopt the wedged claims via lease expiry.
func TestWedgedWorkersCancelledAndReplaced(t *testing.T) {
	st := sweep.NewMemStore()
	opts := fastOptions(st)
	opts.WedgeTimeout = 25 * time.Millisecond
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	var victims atomic.Int64
	victims.Store(int64(opts.Workers)) // the whole first wave wedges
	inner := opts.hookLease
	opts.hookLease = func(key, w string, o *sweep.LeaseOptions) {
		inner(key, w, o)
		if victims.Add(-1) >= 0 {
			o.Throttle = func(sweep.Block) { <-release }
		}
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, c, s.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done after wedge recovery", fin.State, fin.Error)
	}
	if c.wedges.Load() == 0 {
		t.Error("wedge watchdog never fired")
	}
	table, err := c.Table(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := cliBytes(t, "E6", testConfig); !bytes.Equal(table, want) {
		t.Errorf("post-wedge table differs from CLI bytes\nwant:\n%s\ngot:\n%s", want, table)
	}
}

// The admission queue is bounded: submissions beyond QueueLimit are
// refused with ErrQueueFull instead of growing without bound.
func TestQueueFullBackpressure(t *testing.T) {
	st := sweep.NewMemStore()
	opts := fastOptions(st)
	opts.QueueLimit = 1
	opts.MaxRunning = 1
	gate := make(chan struct{})
	inner := opts.hookLease
	opts.hookLease = func(key, w string, o *sweep.LeaseOptions) {
		inner(key, w, o)
		o.Throttle = func(sweep.Block) { <-gate }
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	other := testConfig
	other.Seed = 99
	if _, err := c.Submit("E6", other); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second submit = %v, want ErrQueueFull", err)
	}
	// A duplicate of the admitted job still deduplicates — backpressure
	// never refuses work the queue already holds.
	if _, err := c.Submit("E6", testConfig); err != nil {
		t.Fatalf("duplicate submit under full queue: %v", err)
	}
	close(gate)
	if fin := waitDone(t, c, s1.ID); fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	// Capacity freed: new configs are admitted again.
	if _, err := c.Submit("E6", other); err != nil {
		t.Fatalf("submit after drain of queue: %v", err)
	}
}

// Drain refuses new work and stops workers; a second coordinator over the
// same store resumes the interrupted job from its durable grains and still
// serves the CLI bytes. This is the SIGTERM path; the SIGKILL path (no
// Drain at all) is the same minus the courtesy, and the CI smoke covers it
// against a real process.
func TestDrainThenResumeFinishesJob(t *testing.T) {
	st, err := sweep.NewDirStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOptions(st)
	opts.MaxAttempts = 4
	started := make(chan struct{})
	var once atomic.Bool
	inner := opts.hookLease
	opts.hookLease = func(key, w string, o *sweep.LeaseOptions) {
		inner(key, w, o)
		o.Throttle = func(sweep.Block) {
			if once.CompareAndSwap(false, true) {
				close(started) // first grain reached: some work is durable soon
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	c1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c1.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := c1.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// New work is refused while draining (an existing job's duplicate still
	// deduplicates — that refuses nothing the queue doesn't already hold).
	fresh := testConfig
	fresh.Seed = 42
	if _, err := c1.Submit("E6", fresh); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}

	// Second life: a fresh coordinator over the same store re-attaches.
	c2, err := New(fastOptions(st))
	if err != nil {
		t.Fatal(err)
	}
	n, err := c2.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if n == 0 {
		// The first life may have finished and cached the table before the
		// drain won the race; then Resume correctly requeues nothing and a
		// submission is a cache hit.
		s2, err := c2.Submit("E6", testConfig)
		if err != nil {
			t.Fatal(err)
		}
		if !s2.CacheHit {
			t.Fatalf("Resume requeued nothing and submit was no cache hit: %+v", s2)
		}
	}
	fin := waitDone(t, c2, s.ID)
	if fin.State != StateDone {
		t.Fatalf("resumed job state = %s (%s), want done", fin.State, fin.Error)
	}
	table, err := c2.Table(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := cliBytes(t, "E6", testConfig); !bytes.Equal(table, want) {
		t.Errorf("resumed table differs from CLI bytes\nwant:\n%s\ngot:\n%s", want, table)
	}
}

// A table cached by an earlier coordinator life is served by the next one
// without recomputation, marked as a cache hit.
func TestColdCacheHitAcrossLives(t *testing.T) {
	st, err := sweep.NewDirStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := New(fastOptions(st))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c1.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c1, s.ID)
	want, err := c1.Table(s.ID)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := New(fastOptions(st))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c2.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if s2.State != StateDone || !s2.CacheHit {
		t.Fatalf("second life submit = %s cacheHit=%v, want done cache hit", s2.State, s2.CacheHit)
	}
	got, err := c2.Table(s2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cache-served table differs from computed table")
	}
	// Resume skips runs whose table is already cached.
	c3, err := New(fastOptions(st))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c3.Resume(); err != nil || n != 0 {
		t.Errorf("Resume over a fully cached store = %d, %v; want 0 requeued", n, err)
	}
}

// A store that vanishes mid-run surfaces as worker deaths the breaker
// counts; the job parks as failed instead of crashing or hot-looping the
// coordinator — and the status API keeps answering without progress.
func TestStoreFaultParksJob(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	st, err := sweep.NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOptions(st)
	opts.MaxAttempts = 2
	// One worker: the saboteur is never racing a sibling's Put, whose
	// directory re-creation could resurrect the root it just removed.
	opts.Workers = 1
	var sabotage atomic.Bool
	inner := opts.hookLease
	opts.hookLease = func(key, w string, o *sweep.LeaseOptions) {
		inner(key, w, o)
		o.StoreRetries = 1
		o.Throttle = func(sweep.Block) {
			if sabotage.CompareAndSwap(false, true) {
				os.RemoveAll(root)
			}
		}
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, c, s.ID)
	if fin.State != StateFailed {
		t.Fatalf("state = %s, want failed under a vanished store", fin.State)
	}
	var parked *ParkedError
	if _, jerr := c.Table(s.ID); !errors.As(jerr, &parked) {
		t.Fatalf("faulted-store job error = %v, want *ParkedError", jerr)
	}
	if !errors.Is(parked.Err, fs.ErrNotExist) {
		t.Errorf("parked cause = %v, want the store's fs.ErrNotExist in the chain", parked.Err)
	}
	// Status still answers, degraded to no live progress.
	if js, ok := c.Status(s.ID); !ok || js.State != StateFailed {
		t.Errorf("Status after store fault = %+v, %v", js, ok)
	}
}

func mustGet(t *testing.T, id string) experiments.Experiment {
	t.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
