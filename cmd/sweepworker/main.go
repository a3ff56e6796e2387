// Command sweepworker is a resident remote lease executor: it registers
// with a sweepd coordinator, pulls job assignments over the worker API,
// and executes them over the coordinator's HTTP store — the network-side
// half of a remote fleet, with the same crash-anytime contract as every
// other executor: all durable state is per-grain completion records in
// the coordinator's store, so a worker may be SIGKILLed, partitioned
// away, or restarted at any moment and the fleet's merged table stays
// byte-identical.
//
// Usage:
//
//	sweepworker -coordinator http://127.0.0.1:8350
//	sweepworker -coordinator http://coord:8350 -name rack7 -poll 1s
//
// Network faults are expected, not exceptional: the lease executor
// retries every store operation's transient failures up to -retries times
// under a seeded backoff (idempotent Puts make lost-response retries
// harmless), polls ride out coordinator outages,
// and a registration expired by a long partition is simply re-acquired
// under a fresh identity — the lease protocol reconciles whatever the old
// identity half-did. The worker gives up only when the coordinator stays
// unreachable past -max-failures consecutive attempts, exiting 4 (the
// cli package's "network fault" diagnosis) so a supervisor can tell
// "coordinator gone" from "worker bug".
//
// SIGTERM drains: the current run is cancelled (its finished grains are
// already durable), the registration is deleted, and the worker exits 0.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		os.Exit(cli.Report(os.Stderr, "sweepworker", err))
	}
}

// errReregister reports a 404 from the worker API: the registration
// expired (a partition outlasted 2×TTL) or the coordinator restarted.
// Not a failure — the worker acquires a fresh identity and carries on.
var errReregister = errors.New("sweepworker: registration unknown; acquiring a new one")

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweepworker", flag.ContinueOnError)
	coord := fs.String("coordinator", "", "base URL of the sweepd coordinator (required), e.g. http://127.0.0.1:8350")
	name := fs.String("name", "", "worker name, embedded in its registration ids (default: the hostname)")
	poll := fs.Duration("poll", 500*time.Millisecond, "pacing for assignment polls and in-run heartbeats")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request HTTP deadline against the coordinator")
	retries := fs.Int("retries", 5, "transient-fault retries per store operation")
	maxFailures := fs.Int("max-failures", 10, "consecutive unreachable-coordinator episodes before the worker gives up (exit 4)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coord == "" {
		return fmt.Errorf("-coordinator is required: the sweepd URL to pull assignments from")
	}
	if *name == "" {
		if host, err := os.Hostname(); err == nil {
			*name = host
		} else {
			*name = "worker"
		}
	}
	logger := log.New(os.Stderr, "sweepworker: ", log.LstdFlags)

	h := fnv.New64a()
	io.WriteString(h, *name)
	backoff := sweep.Backoff{Base: 200 * time.Millisecond, Max: 5 * time.Second, Seed: h.Sum64()}
	w := &worker{
		api:     newAPIClient(*coord, *timeout),
		store:   sweep.NewHTTPStore(*coord + "/store").WithTimeout(*timeout),
		name:    *name,
		poll:    *poll,
		retries: *retries,
		backoff: backoff,
		logf:    logger.Printf,
	}

	id, err := w.register(ctx, *maxFailures)
	if err != nil {
		return err
	}
	logger.Printf("registered as %s at %s", id, *coord)

	failures := 0 // consecutive unreachable episodes across polls and runs
	for {
		if ctx.Err() != nil {
			return w.drain(id)
		}
		a, err := w.api.pollOnce(id)
		switch {
		case errors.Is(err, errReregister):
			if id, err = w.register(ctx, *maxFailures); err != nil {
				return err
			}
			logger.Printf("re-registered as %s", id)
			continue
		case err != nil:
			if failures++; failures >= *maxFailures {
				return fmt.Errorf("sweepworker: coordinator unreachable after %d attempts: %w", failures, err)
			}
			if werr := backoff.Wait(ctx, failures-1); werr != nil {
				return w.drain(id)
			}
			continue
		}
		failures = 0
		if a == nil {
			if werr := sleepCtx(ctx, *poll); werr != nil {
				return w.drain(id)
			}
			continue
		}
		if err := w.execute(ctx, id, a); err != nil {
			if ctx.Err() != nil {
				return w.drain(id)
			}
			logger.Printf("assignment %s failed: %v", a.Job, err)
			// Crash-loop backoff: a job that keeps failing remotely (a poisoned
			// assignment, a flapping network) must not become a hot loop.
			if failures++; failures >= *maxFailures && !sweep.IsRetryable(err) {
				return err
			}
			if werr := backoff.Wait(ctx, failures-1); werr != nil {
				return w.drain(id)
			}
			continue
		}
		failures = 0
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker bundles one resident executor's wiring.
type worker struct {
	api     *apiClient
	store   *sweep.HTTPStore
	name    string
	poll    time.Duration
	retries int
	backoff sweep.Backoff
	logf    func(format string, args ...any)
}

// register acquires a registration, riding out transient coordinator
// faults under the backoff; budget consecutive failures and give up with
// the unreachable fault (→ exit 4).
func (w *worker) register(ctx context.Context, maxFailures int) (string, error) {
	for attempt := 0; ; attempt++ {
		id, err := w.api.register(w.name)
		if err == nil {
			return id, nil
		}
		if !sweep.IsRetryable(err) || attempt+1 >= maxFailures {
			return "", fmt.Errorf("sweepworker: register with coordinator: %w", err)
		}
		w.logf("register: %v (retrying)", err)
		if werr := w.backoff.Wait(ctx, attempt); werr != nil {
			return "", werr
		}
	}
}

// execute runs one assignment over the coordinator's HTTP store,
// heartbeating the registration throughout, and reports the outcome.
func (w *worker) execute(ctx context.Context, id string, a *serve.Assignment) error {
	e, err := experiments.Get(a.Experiment)
	if err != nil {
		return fmt.Errorf("sweepworker: assignment %s: %w", a.Job, err)
	}
	w.logf("assignment %s: running %s (grains %d)", a.Job, a.Experiment, a.Grains)

	// Heartbeat while the run executes: polling with a live assignment is
	// idempotent. A heartbeat lost to a partition is ignored — the grains
	// keep landing in the store either way, and an expired registration is
	// healed by the done report below.
	hbCtx, hbStop := context.WithCancel(ctx)
	defer hbStop()
	go func() {
		t := time.NewTicker(w.poll)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				w.api.pollOnce(id)
			case <-hbCtx.Done():
				return
			}
		}
	}()

	// RunLeased retries each store operation up to -retries times. Its
	// policy paces faster than the registration backoff, since a flaky
	// network inside a run should cost milliseconds, not seconds; it also
	// paces the executor's idle rescans.
	stats, runErr := experiments.RunLeasedSweeps(ctx, e, a.Config, w.store, sweep.LeaseOptions{
		Worker:        id,
		GrainsPerSize: a.Grains,
		Retry:         sweep.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Seed: w.backoff.Seed},
		StoreRetries:  w.retries,
	})
	hbStop()

	errStr := ""
	if runErr != nil {
		errStr = runErr.Error()
	}
	if derr := w.api.done(id, a.Job, stats, errStr); derr != nil {
		if errors.Is(derr, errReregister) {
			// Expired mid-run (a long partition). The grains are durable and
			// the job's completion is decided by store coverage, not by this
			// report; log and move on to re-register on the next poll.
			w.logf("assignment %s: registration expired mid-run; grains are durable, result unaffected", a.Job)
		} else {
			w.logf("assignment %s: done report failed: %v", a.Job, derr)
		}
	}
	if runErr == nil {
		w.logf("assignment %s: covered (grains %d, claims %d, steals %d, adopted %d)",
			a.Job, stats.Grains, stats.Claims, stats.Steals, stats.Adopted)
	}
	return runErr
}

// drain is the SIGTERM path: deregistration that rides out transient
// coordinator faults under the backoff for a few seconds, then a clean
// exit either way (an undeleted registration expires on its own).
func (w *worker) drain(id string) error {
	w.logf("draining: deregistering %s (completed grains stay durable)", id)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for attempt := 0; ; attempt++ {
		err := w.api.deregister(id)
		if err == nil || errors.Is(err, errReregister) || !sweep.IsRetryable(err) ||
			w.backoff.Wait(ctx, attempt) != nil {
			return nil
		}
	}
}

// apiClient speaks the coordinator's worker API. Transport faults come
// back as retryable *sweep.UnreachableError so one classifier drives
// both store and API retries.
type apiClient struct {
	base   string
	client *http.Client
}

func newAPIClient(base string, timeout time.Duration) *apiClient {
	return &apiClient{base: base, client: &http.Client{Timeout: timeout}}
}

func (c *apiClient) doJSON(method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	url := c.base + path
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return sweep.Transient(&sweep.UnreachableError{URL: url, Err: err})
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return sweep.Transient(&sweep.UnreachableError{URL: url, Err: err})
	}
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return errReregister
	case resp.StatusCode == http.StatusNoContent:
		return nil
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests:
		return sweep.Transient(&sweep.UnreachableError{URL: url,
			Err: fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(data))})
	case resp.StatusCode >= 400:
		return fmt.Errorf("sweepworker: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("sweepworker: decode %s response: %w", path, err)
		}
	}
	return nil
}

func (c *apiClient) register(name string) (string, error) {
	var info serve.WorkerInfo
	err := c.doJSON(http.MethodPost, "/workers", map[string]string{"name": name}, &info)
	if err != nil {
		return "", err
	}
	if info.ID == "" {
		return "", fmt.Errorf("sweepworker: coordinator returned an empty worker id")
	}
	return info.ID, nil
}

// pollOnce heartbeats and asks for work: (nil, nil) means "no work".
func (c *apiClient) pollOnce(id string) (*serve.Assignment, error) {
	var a serve.Assignment
	err := c.doJSON(http.MethodPost, "/workers/"+id+"/poll", nil, &a)
	if err != nil {
		return nil, err
	}
	if a.Job == "" {
		return nil, nil // 204: registered, alive, nothing to do
	}
	return &a, nil
}

func (c *apiClient) done(id, job string, stats sweep.LeaseStats, errStr string) error {
	return c.doJSON(http.MethodPost, "/workers/"+id+"/done", map[string]any{
		"job": job, "stats": stats, "error": errStr,
	}, nil)
}

func (c *apiClient) deregister(id string) error {
	return c.doJSON(http.MethodDelete, "/workers/"+id, nil, nil)
}
