package sweep

// The Store interface over HTTP: StoreHandler serves any Store as a small
// REST API, HTTPStore is the matching client, and retryStore wraps any
// Store in the IsRetryable/Backoff retry discipline RunLeased applies to
// every store it is given. Together they are the remote half of the lease
// protocol — a sweepd coordinator mounts StoreHandler over its DirStore
// root and any sweepworker process on any machine joins the run through
// an HTTPStore, with exactly the semantics the in-process executors get:
//
//	PUT    /{name}          write the object (idempotent; see below)
//	GET    /{name}          read the object (404 ⇒ fs.ErrNotExist)
//	GET    /?prefix=P       list object names under the prefix, ascending
//	DELETE /{name}          remove the object (missing is fine)
//
// Status mapping is the contract that carries the store's typed faults
// through the network boundary: 404 ⇒ fs.ErrNotExist (a missing object,
// or a vanished store root), 403 ⇒ fs.ErrPermission (a read-only root),
// 400 ⇒ a name-grammar violation, and 5xx or any transport failure ⇒ a
// *TransientError wrapping an *UnreachableError — the retryable class.
//
// Idempotent Put: Store.Put is atomic last-write-wins, so a retried write
// is harmless by construction — two Puts of the same bytes leave the same
// object as one. The handler strengthens that to "provably at most one
// media write": the client sends the content hash as If-None-Match, and a
// PUT whose bytes already live under the name is acknowledged without
// touching the medium. A response lost after the server applied the write
// therefore costs one retry and zero state: the retry matches the stored
// hash and short-circuits.
//
// This API is a cluster-internal protocol between cooperating processes,
// not a public surface: no auth, names validated by the store grammar.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// contentETag is the content address both sides agree on: fnv64a of the
// object bytes, quoted per the ETag grammar.
func contentETag(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("\"fnv64a-%016x\"", h.Sum64())
}

// StoreHandler serves st over HTTP under the handler's root path. Mount it
// stripped of its prefix: http.StripPrefix("/store/", StoreHandler(st)).
func StoreHandler(st Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := strings.Trim(r.URL.Path, "/")
		if name == "" {
			if r.Method != http.MethodGet {
				http.Error(w, "sweep: store root accepts GET (list) only", http.StatusMethodNotAllowed)
				return
			}
			names, err := st.List(r.URL.Query().Get("prefix"))
			if err != nil {
				storeHTTPError(w, err)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, n := range names {
				fmt.Fprintln(w, n)
			}
			return
		}
		if err := validStoreName(name); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			data, err := st.Get(name)
			if err != nil {
				storeHTTPError(w, err)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("ETag", contentETag(data))
			w.Write(data)
		case http.MethodPut:
			data, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, fmt.Sprintf("sweep: store put %s: read body: %v", name, err), http.StatusBadRequest)
				return
			}
			etag := contentETag(data)
			// The idempotency fast path: a retried Put whose bytes already
			// landed is acknowledged without a second media write.
			if match := r.Header.Get("If-None-Match"); match == etag {
				if existing, gerr := st.Get(name); gerr == nil && bytes.Equal(existing, data) {
					w.Header().Set("ETag", etag)
					w.Header().Set("X-Sweep-Idempotent", "hit")
					w.WriteHeader(http.StatusOK)
					return
				}
			}
			if err := st.Put(name, data); err != nil {
				storeHTTPError(w, err)
				return
			}
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusOK)
		case http.MethodDelete:
			if err := st.Delete(name); err != nil {
				storeHTTPError(w, err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "sweep: store objects accept GET, PUT, DELETE", http.StatusMethodNotAllowed)
		}
	})
}

// storeHTTPError maps a Store failure onto the status code the client maps
// back to the same typed error.
func storeHTTPError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, fs.ErrNotExist):
		code = http.StatusNotFound
	case errors.Is(err, fs.ErrPermission):
		code = http.StatusForbidden
	}
	http.Error(w, err.Error(), code)
}

// HTTPStore is the Store client over a StoreHandler endpoint. Safe for
// concurrent use; every request gets its own deadline, so a hung endpoint
// surfaces as a retryable fault instead of a stuck worker. HTTPStore does
// NOT retry: RunLeased rides out its transient faults under
// LeaseOptions.StoreRetries.
type HTTPStore struct {
	base    string
	client  *http.Client
	timeout time.Duration
}

// NewHTTPStore opens a client against a StoreHandler mount, e.g.
// "http://coordinator:8350/store".
func NewHTTPStore(base string) *HTTPStore {
	return &HTTPStore{
		base:    strings.TrimRight(base, "/"),
		client:  &http.Client{},
		timeout: 10 * time.Second,
	}
}

// WithTimeout sets the per-request deadline (default 10s) and returns s.
func (s *HTTPStore) WithTimeout(d time.Duration) *HTTPStore {
	if d > 0 {
		s.timeout = d
	}
	return s
}

// WithClient substitutes the underlying HTTP client (tests, custom
// transports) and returns s.
func (s *HTTPStore) WithClient(c *http.Client) *HTTPStore {
	if c != nil {
		s.client = c
	}
	return s
}

// do runs one request against the endpoint and returns the response body
// for 2xx statuses; every other outcome is mapped to the typed error the
// equivalent local store operation would produce.
func (s *HTTPStore) do(method, rawURL string, body []byte, header http.Header) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rawURL, rd)
	if err != nil {
		return nil, fmt.Errorf("sweep: http store %s %s: %w", method, rawURL, err)
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := s.client.Do(req)
	if err != nil {
		// Transport-level failure: refused, reset, timed out, partitioned.
		return nil, Transient(&UnreachableError{URL: rawURL, Err: err})
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// The response died mid-body — the server may well have applied the
		// operation; a retry is harmless by the Put idempotency contract.
		return nil, Transient(&UnreachableError{URL: rawURL, Err: err})
	}
	msg := strings.TrimSpace(string(data))
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return data, nil
	case resp.StatusCode == http.StatusNotFound:
		return nil, fmt.Errorf("sweep: http store %s %s: %s: %w", method, rawURL, msg, fs.ErrNotExist)
	case resp.StatusCode == http.StatusForbidden:
		return nil, fmt.Errorf("sweep: http store %s %s: %s: %w", method, rawURL, msg, fs.ErrPermission)
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests:
		// The endpoint is alive but failing; the class a flapping backend
		// or mid-restart coordinator produces. Retryable.
		return nil, Transient(&UnreachableError{URL: rawURL,
			Err: fmt.Errorf("status %s: %s", resp.Status, msg)})
	default:
		return nil, fmt.Errorf("sweep: http store %s %s: status %s: %s", method, rawURL, resp.Status, msg)
	}
}

func (s *HTTPStore) objectURL(name string) string { return s.base + "/" + name }

// Put writes the object through the endpoint. The content hash rides along
// as If-None-Match, so a retry of a write whose response was lost after
// the server applied it is acknowledged without a second media write.
func (s *HTTPStore) Put(name string, data []byte) error {
	if err := validStoreName(name); err != nil {
		return err
	}
	h := http.Header{}
	h.Set("If-None-Match", contentETag(data))
	_, err := s.do(http.MethodPut, s.objectURL(name), data, h)
	return err
}

// Get reads the object; a 404 surfaces as fs.ErrNotExist exactly like a
// local store's missing object.
func (s *HTTPStore) Get(name string) ([]byte, error) {
	if err := validStoreName(name); err != nil {
		return nil, err
	}
	return s.do(http.MethodGet, s.objectURL(name), nil, nil)
}

// List returns the names under the prefix, ascending — the server's own
// List order, one name per line.
func (s *HTTPStore) List(prefix string) ([]string, error) {
	u := s.base + "/?prefix=" + url.QueryEscape(prefix)
	data, err := s.do(http.MethodGet, u, nil, nil)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			names = append(names, line)
		}
	}
	return names, nil
}

// Delete removes the object; missing objects are fine.
func (s *HTTPStore) Delete(name string) error {
	if err := validStoreName(name); err != nil {
		return err
	}
	_, err := s.do(http.MethodDelete, s.objectURL(name), nil, nil)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // deleting a missing object is not an error
	}
	return err
}

// retryStore wraps a Store in the engine's retry discipline: every
// operation that fails with a retryable fault (IsRetryable) is retried
// under the Backoff policy up to retries extra attempts; final faults
// (vanished root, permission, cancellation, corrupt data) return
// immediately. A flapping network degrades throughput, never correctness —
// and when the budget runs out the last fault is returned unwrapped, so
// its type still drives the caller's own classification.
type retryStore struct {
	inner Store
	// ctx bounds every backoff wait: a draining worker stops retrying
	// immediately.
	ctx     context.Context
	retries int
	backoff Backoff
}

func (s *retryStore) retry(op func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || !IsRetryable(err) || attempt >= s.retries {
			return err
		}
		if s.backoff.Wait(s.ctx, attempt) != nil {
			return err // context fired mid-backoff: report the fault, not the wait
		}
	}
}

// Put retries transient faults; safe because Put is idempotent end to end.
func (s *retryStore) Put(name string, data []byte) error {
	return s.retry(func() error { return s.inner.Put(name, data) })
}

// Get retries transient faults; a missing object is final immediately.
func (s *retryStore) Get(name string) ([]byte, error) {
	var data []byte
	err := s.retry(func() error {
		var e error
		data, e = s.inner.Get(name)
		return e
	})
	return data, err
}

// List retries transient faults.
func (s *retryStore) List(prefix string) ([]string, error) {
	var names []string
	err := s.retry(func() error {
		var e error
		names, e = s.inner.List(prefix)
		return e
	})
	return names, err
}

// Delete retries transient faults.
func (s *retryStore) Delete(name string) error {
	return s.retry(func() error { return s.inner.Delete(name) })
}
