package serve

// API-level tests over httptest: status codes, backpressure headers, and
// the served table bytes — the same contract the CI smoke exercises
// against a real sweepd process.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

func postJob(t *testing.T, srv *httptest.Server, body string) (*http.Response, JobStatus) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, st
}

func TestHTTPJobLifecycle(t *testing.T) {
	c, err := New(fastOptions(sweep.NewMemStore()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	body := fmt.Sprintf(`{"experiment":"E6","config":{"seed":%d,"sizes":[16,24],"trials":%d}}`,
		testConfig.Seed, testConfig.Trials)
	resp, st := postJob(t, srv, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}

	// Poll status until done, as a client would.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/{id} = %d", r.StatusCode)
		}
		if cur.State == StateDone {
			break
		}
		if cur.State == StateFailed {
			t.Fatalf("job failed: %s", cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	r, err := http.Get(srv.URL + "/jobs/" + st.ID + "/table")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET table = %d", r.StatusCode)
	}
	var got bytes.Buffer
	got.ReadFrom(r.Body)
	if want := cliBytes(t, "E6", testConfig); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("HTTP table differs from CLI bytes\nwant:\n%s\ngot:\n%s", want, got.Bytes())
	}

	// An identical resubmission answers 200 with the finished job.
	resp2, st2 := postJob(t, srv, body)
	if resp2.StatusCode != http.StatusOK || st2.State != StateDone || st2.ID != st.ID {
		t.Errorf("resubmit = %d %s %s, want 200 done %s", resp2.StatusCode, st2.State, st2.ID, st.ID)
	}
}

func TestHTTPErrors(t *testing.T) {
	c, err := New(fastOptions(sweep.NewMemStore()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	cases := []struct {
		name, body string
		want       int
		// wantErr, when set, must appear in the error body.
		wantErr string
	}{
		{"malformed JSON", `{"experiment":`, http.StatusBadRequest, ""},
		{"unknown field", `{"experiment":"E6","conf":{}}`, http.StatusBadRequest, "conf"},
		{"missing experiment", `{"config":{"seed":1}}`, http.StatusBadRequest, ""},
		{"unknown experiment", `{"experiment":"E99","config":{"seed":1}}`, http.StatusBadRequest, ""},
		// The builder is pinned with "backend":"builder"; the retired
		// toggle is an unknown config field, refused by name.
		{"retired noAtlas", `{"experiment":"E6","config":{"seed":1,"noAtlas":true}}`, http.StatusBadRequest, "noAtlas"},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: POST = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if !strings.Contains(string(body), tc.wantErr) {
			t.Errorf("%s: error body %q does not name %q", tc.name, body, tc.wantErr)
		}
	}

	if r, err := http.Get(srv.URL + "/jobs/nope"); err != nil || r.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job = %v, %v; want 404", r.StatusCode, err)
	}
	if r, err := http.Get(srv.URL + "/jobs/nope/table"); err != nil || r.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown table = %v, %v; want 404", r.StatusCode, err)
	}
}

func TestHTTPBackpressureAndNotReady(t *testing.T) {
	opts := fastOptions(sweep.NewMemStore())
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
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, st := postJob(t, srv, `{"experiment":"E6","config":{"seed":11,"sizes":[16,24],"trials":12}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d", resp.StatusCode)
	}
	// The running job's table is not ready: 409, not 200 or 500.
	if r, _ := http.Get(srv.URL + "/jobs/" + st.ID + "/table"); r.StatusCode != http.StatusConflict {
		t.Errorf("GET table of running job = %d, want 409", r.StatusCode)
	}
	// The queue is full for new work: 429 with a Retry-After hint.
	resp2, _ := postJob(t, srv, `{"experiment":"E6","config":{"seed":99,"sizes":[16,24],"trials":12}}`)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit POST = %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(gate)
	ctx, cancel := contextWithTestTimeout()
	defer cancel()
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	c, err := New(fastOptions(sweep.NewMemStore()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	r, err := http.Get(srv.URL + "/healthz")
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %v, %v; want 200", r.StatusCode, err)
	}
	r.Body.Close()

	s, err := c.Submit("E6", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTestTimeout()
	defer cancel()
	if _, err := c.Wait(ctx, s.ID); err != nil {
		t.Fatal(err)
	}
	m, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(m.Body)
	for _, want := range []string{
		`sweepd_jobs{state="done"} 1`,
		"sweepd_submissions_total 1",
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, body.String())
		}
	}

	// Draining flips healthz to 503.
	ctx2, cancel2 := contextWithTestTimeout()
	defer cancel2()
	if err := c.Drain(ctx2); err != nil {
		t.Fatal(err)
	}
	h, err := http.Get(srv.URL + "/healthz")
	if err != nil || h.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz while draining = %v, %v; want 503", h.StatusCode, err)
	}
	h.Body.Close()
}
