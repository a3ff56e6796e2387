package sweep

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"testing"
)

// One predicate decides what is worth backing off on; pin its verdicts.
func TestIsRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"declared transient", Transient(errors.New("blip")), true},
		{"transient deep in a chain", fmt.Errorf("worker: %w", Transient(errors.New("blip"))), true},
		{"unreachable endpoint", Transient(&UnreachableError{URL: "http://x/store/a", Err: errors.New("refused")}), true},
		{"cancellation", context.Canceled, false},
		{"deadline", fmt.Errorf("scan: %w", context.DeadlineExceeded), false},
		{"vanished root", fmt.Errorf("sweep: store put: %w", fs.ErrNotExist), false},
		{"read-only root", fmt.Errorf("sweep: store put: %w", fs.ErrPermission), false},
		{"corrupt record", &DecodeError{Format: FormatLease, Reason: "garbage"}, false},
		{"unclassified media fault", errors.New("crashed mid-write"), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsRetryable(tc.err); got != tc.want {
				t.Errorf("IsRetryable(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

// Transient(nil) must stay nil, and the wrapper must keep errors.Is/As
// working on the cause.
func TestTransientWrapping(t *testing.T) {
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
	inner := &UnreachableError{URL: "http://coord:1/store/run/plan", Err: errors.New("reset")}
	err := Transient(inner)
	var un *UnreachableError
	if !errors.As(err, &un) || un.URL != inner.URL {
		t.Fatalf("UnreachableError lost through Transient: %v", err)
	}
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatalf("not a *TransientError: %v", err)
	}
}

// A scan fault that is final (vanished root) must kill the executor on
// its first occurrence instead of burning the whole retry budget; only
// transient faults are worth the backed-off rescans.
func TestLeaseScanFinalFaultFailsFast(t *testing.T) {
	st := NewMemStore()
	spec := cycleSpec(3, []int{8}, 4, 1)
	faults := 0
	fs1 := &faultingStore{Store: st, onList: func(prefix string) error {
		faults++
		return fmt.Errorf("sweep: store list: %w", fs.ErrNotExist)
	}}
	_, err := RunLeased(context.Background(), spec, fs1, LeaseOptions{
		Worker: "w", StoreRetries: 5, Retry: Backoff{Base: 1},
	})
	if err == nil || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("RunLeased over vanished store = %v, want fs.ErrNotExist", err)
	}
	if faults != 1 {
		t.Errorf("final fault was retried %d times; IsRetryable should stop the loop at 1", faults)
	}
}

// faultingStore lets a test fail specific operations of a real store.
type faultingStore struct {
	Store
	onList func(prefix string) error
}

func (s *faultingStore) List(prefix string) ([]string, error) {
	if s.onList != nil {
		if err := s.onList(prefix); err != nil {
			return nil, err
		}
	}
	return s.Store.List(prefix)
}
