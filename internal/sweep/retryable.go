package sweep

// Error classification for retry loops: one predicate — IsRetryable —
// decides what is worth backing off on, for the store wrapper RunLeased
// retries every lease store operation through (retryStore, httpstore.go;
// RetryingStore hands the same policy to a caller's records) and for sweepworker's coordinator API calls. A store implementation
// marks a failure as transient by wrapping it in *TransientError, and
// everything else is classified by type: cancellation, missing/permission
// faults and corrupt records are final, unclassified media faults are
// presumed transient (retrying a fault that turns out permanent only
// costs bounded time — the retry budgets stay small — while giving up on a
// blip costs a worker death the supervisor has to absorb).

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
)

// TransientError marks a failure as worth backing off and retrying: the
// operation may succeed verbatim on a later attempt (a network blip, a
// busy endpoint, a 5xx). It is the positive signal IsRetryable looks for
// first; wrap with Transient.
type TransientError struct {
	// Err is the underlying failure.
	Err error
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("sweep: transient fault: %v", e.Err)
}

func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as a retryable fault; nil stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// UnreachableError reports a store endpoint that could not be reached or
// would not answer: connection failures, request timeouts, and 5xx
// responses from an HTTPStore all carry one, naming the offending URL so
// a CLI failure report (internal/cli) can print where the network broke.
// It is always wrapped in *TransientError by the HTTP client — an
// unreachable endpoint is the textbook retryable fault.
type UnreachableError struct {
	// URL is the request URL that failed.
	URL string
	// Err is the transport or status failure.
	Err error
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("sweep: store endpoint %s unreachable: %v", e.URL, e.Err)
}

func (e *UnreachableError) Unwrap() error { return e.Err }

// IsRetryable reports whether a store operation's failure is worth a
// backed-off retry of the same operation. The classification:
//
//   - *TransientError anywhere in the chain: yes, by declaration;
//   - context cancellation or deadline: no — the caller is being told to
//     stop, not the medium failing;
//   - fs.ErrNotExist / fs.ErrPermission: no — a vanished or read-only
//     store does not heal by retrying (the lease protocol treats it as a
//     worker death the supervisor counts);
//   - *DecodeError: no — corrupt bytes re-read identically;
//   - anything else: yes — an unclassified media fault is presumed
//     transient, preserving the lease loop's long-standing behavior of
//     riding out faults it cannot name.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	var te *TransientError
	if errors.As(err, &te) {
		return true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, fs.ErrPermission) {
		return false
	}
	var de *DecodeError
	if errors.As(err, &de) {
		return false
	}
	return true
}
