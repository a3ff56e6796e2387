package sweep

// The remote store's contract tests: the HTTP client/server pair must be
// indistinguishable from a local store — same conformance suite, same
// typed faults through the network boundary — and a retried Put whose
// first response was lost after the server applied the write must be
// provably harmless at the store layer.

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// newHTTPStorePair serves st over a live test server and returns the
// matching client.
func newHTTPStorePair(t *testing.T, st Store) (*HTTPStore, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(StoreHandler(st))
	t.Cleanup(srv.Close)
	return NewHTTPStore(srv.URL).WithTimeout(5 * time.Second), srv
}

// The full Store conformance suite runs against HTTPStore exactly as it
// does against DirStore and MemStore — over both backing media.
func TestHTTPStoreConformance(t *testing.T) {
	t.Run("over-mem", func(t *testing.T) {
		hs, _ := newHTTPStorePair(t, NewMemStore())
		testStoreContract(t, hs)
	})
	t.Run("over-dir", func(t *testing.T) {
		st, err := NewDirStore(filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		hs, _ := newHTTPStorePair(t, st)
		testStoreContract(t, hs)
	})
}

// The DirStore fault cases must keep their types through the HTTP
// boundary: a vanished root is fs.ErrNotExist from every method, never an
// empty store.
func TestHTTPStoreRootDeletedMidRun(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	st, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	hs, _ := newHTTPStorePair(t, st)
	if err := hs.Put("run/done/0-0", []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	if err := hs.Put("run/done/0-8", []byte("x")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Put after root deletion = %v, want fs.ErrNotExist", err)
	}
	if _, err := hs.List("run/"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("List after root deletion = %v, want fs.ErrNotExist", err)
	}
	if _, err := hs.Get("run/done/0-0"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Get after root deletion = %v, want fs.ErrNotExist", err)
	}
	// None of those are worth retrying: the predicate agrees across the wire.
	if err := hs.Put("run/done/0-8", []byte("x")); IsRetryable(err) {
		t.Errorf("vanished root classified retryable through HTTP: %v", err)
	}
}

// A read-only root keeps its fs.ErrPermission type through the boundary.
func TestHTTPStoreReadOnlyRoot(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	root := filepath.Join(t.TempDir(), "store")
	st, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	hs, _ := newHTTPStorePair(t, st)
	if err := hs.Put("run/done/0-0", []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := os.Chmod(root, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(root, 0o755) })
	if err := hs.Put("other/0-0", []byte("x")); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("Put under read-only root = %v, want fs.ErrPermission", err)
	}
	if got, err := hs.Get("run/done/0-0"); err != nil || string(got) != "payload" {
		t.Fatalf("Get under read-only root = %q, %v", got, err)
	}
}

// countingStore counts how many writes actually reach the medium.
type countingStore struct {
	Store
	puts atomic.Int64
}

func (s *countingStore) Put(name string, data []byte) error {
	s.puts.Add(1)
	return s.Store.Put(name, data)
}

// dropNextResponse makes the next n responses vanish AFTER the inner
// handler ran — the server applied the operation, the client never hears.
type dropNextResponse struct {
	inner http.Handler
	drops atomic.Int64
}

func (d *dropNextResponse) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.drops.Add(-1) >= 0 {
		rec := httptest.NewRecorder()
		d.inner.ServeHTTP(rec, r)   // the write lands...
		panic(http.ErrAbortHandler) // ...and the response dies on the wire
	}
	d.inner.ServeHTTP(w, r)
}

// The idempotency proof at the store layer: a Put whose response was
// dropped after the server applied the write fails retryably; the retry
// succeeds, the object holds exactly the written bytes, and the medium
// saw exactly one write — the retry was acknowledged from the content
// hash, not re-applied.
func TestHTTPStorePutIdempotentAfterDroppedResponse(t *testing.T) {
	backing := &countingStore{Store: NewMemStore()}
	dropper := &dropNextResponse{inner: StoreHandler(backing)}
	dropper.drops.Store(1)
	srv := httptest.NewServer(dropper)
	defer srv.Close()
	hs := NewHTTPStore(srv.URL).WithTimeout(5 * time.Second)

	payload := []byte("grain aggregate bytes")
	err := hs.Put("run/done/0-0", payload)
	if err == nil {
		t.Fatal("first Put: want a lost-response failure")
	}
	if !IsRetryable(err) {
		t.Fatalf("lost response classified final: %v", err)
	}
	var un *UnreachableError
	if !errors.As(err, &un) || un.URL == "" {
		t.Fatalf("lost response error = %v, want *UnreachableError naming the URL", err)
	}
	// The server applied the write despite the lost response.
	if got, gerr := backing.Get("run/done/0-0"); gerr != nil || !bytes.Equal(got, payload) {
		t.Fatalf("server-side object after lost response = %q, %v", got, gerr)
	}
	// The retry is harmless: it succeeds without a second media write.
	if err := hs.Put("run/done/0-0", payload); err != nil {
		t.Fatalf("retried Put: %v", err)
	}
	if got, gerr := hs.Get("run/done/0-0"); gerr != nil || !bytes.Equal(got, payload) {
		t.Fatalf("object after retry = %q, %v", got, gerr)
	}
	if n := backing.puts.Load(); n != 1 {
		t.Errorf("medium saw %d writes for one logical Put + one retry, want 1", n)
	}
	// And a retryStore turns the whole episode into one successful call.
	dropper.drops.Store(1)
	backing.puts.Store(0)
	rs := &retryStore{inner: hs, ctx: context.Background(), retries: 3, backoff: Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond}}
	if err := rs.Put("run/done/0-8", payload); err != nil {
		t.Fatalf("retryStore.Put through a dropped response: %v", err)
	}
	if got, gerr := rs.Get("run/done/0-8"); gerr != nil || !bytes.Equal(got, payload) {
		t.Fatalf("retryStore.Get = %q, %v", got, gerr)
	}
}

// flakyStore fails each operation a set number of times with a transient
// fault before letting it through.
type flakyStore struct {
	Store
	remaining atomic.Int64
	calls     atomic.Int64
}

func (s *flakyStore) Put(name string, data []byte) error {
	s.calls.Add(1)
	if s.remaining.Add(-1) >= 0 {
		return Transient(errors.New("flaky medium"))
	}
	return s.Store.Put(name, data)
}

// retryStore rides out transient faults under its budget and gives up
// cleanly past it; final faults pass through without burning attempts.
func TestRetryStorePolicy(t *testing.T) {
	fast := Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}
	t.Run("transient under budget succeeds", func(t *testing.T) {
		fl := &flakyStore{Store: NewMemStore()}
		fl.remaining.Store(2)
		rs := &retryStore{inner: fl, ctx: context.Background(), retries: 3, backoff: fast}
		if err := rs.Put("a", []byte("x")); err != nil {
			t.Fatalf("Put = %v, want success after 2 transient faults", err)
		}
		if n := fl.calls.Load(); n != 3 {
			t.Errorf("attempts = %d, want 3", n)
		}
	})
	t.Run("budget exhausted returns the typed fault", func(t *testing.T) {
		fl := &flakyStore{Store: NewMemStore()}
		fl.remaining.Store(100)
		rs := &retryStore{inner: fl, ctx: context.Background(), retries: 2, backoff: fast}
		err := rs.Put("a", []byte("x"))
		var te *TransientError
		if !errors.As(err, &te) {
			t.Fatalf("exhausted Put = %v, want the last *TransientError", err)
		}
		if n := fl.calls.Load(); n != 3 {
			t.Errorf("attempts = %d, want 3 (1 + 2 retries)", n)
		}
	})
	t.Run("final faults are not retried", func(t *testing.T) {
		st := NewMemStore()
		rs := &retryStore{inner: st, ctx: context.Background(), retries: 5, backoff: fast}
		if _, err := rs.Get("missing"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Get missing = %v, want fs.ErrNotExist", err)
		}
	})
	t.Run("cancelled context stops retrying", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		fl := &flakyStore{Store: NewMemStore()}
		fl.remaining.Store(100)
		rs := &retryStore{inner: fl, ctx: ctx, retries: 50, backoff: Backoff{Base: time.Minute}}
		err := rs.Put("a", []byte("x"))
		var te *TransientError
		if !errors.As(err, &te) {
			t.Fatalf("cancelled Put = %v, want the fault, not the wait", err)
		}
		if n := fl.calls.Load(); n != 1 {
			t.Errorf("attempts = %d under a dead context, want 1", n)
		}
	})
}

// A whole leased run must work over the HTTP boundary: executors against
// an HTTPStore produce the byte-identical single-process result.
func TestRunLeasedOverHTTPStore(t *testing.T) {
	spec := cycleSpec(17, []int{8, 16}, 12, 1)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	backing := NewMemStore()
	hs, _ := newHTTPStorePair(t, backing)
	if _, err := RunLeased(context.Background(), spec, hs, LeaseOptions{
		Worker: "remote", GrainsPerSize: 4, StoreRetries: 3,
		Retry: Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	}); err != nil {
		t.Fatalf("RunLeased over HTTP: %v", err)
	}
	got, err := CollectLeased(hs, "leaserun", mustPlanOf(spec))
	if err != nil {
		t.Fatalf("CollectLeased over HTTP: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("leased-over-HTTP result differs from single process\nwant: %+v\ngot: %+v", want, got)
	}
}
