package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
)

// Code is a machine-readable error class. Clients should branch on codes,
// never on message text.
type Code string

// Error codes. The set may grow; unrecognized codes should be treated as
// CodeInternal.
const (
	// CodeInvalidArgument: the request is malformed — bad JSON, empty or
	// non-finite trajectories, non-positive or oversized k, unknown
	// measure/algorithm names, inapplicable parameters.
	CodeInvalidArgument Code = "invalid_argument"
	// CodeNotFound: the referenced resource (e.g. a trajectory ID) does
	// not exist.
	CodeNotFound Code = "not_found"
	// CodeTimeout: the search exceeded its deadline.
	CodeTimeout Code = "timeout"
	// CodeDeadlineExceeded: the server predicted the request cannot finish
	// within its remaining deadline budget (including the reserve held back
	// for merging and serialization) and rejected it EARLY, before it could
	// burn a worker slot only to time out. Unlike CodeTimeout no work was
	// wasted; the caller should retry with a larger budget, or opt into
	// degraded answers (QuerySpec.AllowDegraded).
	CodeDeadlineExceeded Code = "deadline_exceeded"
	// CodeCanceled: the caller went away before the search finished.
	CodeCanceled Code = "canceled"
	// CodeOverloaded: the server refused the work because a capacity bound
	// (admission control, a recovering or draining node) is saturated.
	CodeOverloaded Code = "overloaded"
	// CodeTooLarge: the request body exceeds the server's size limit.
	CodeTooLarge Code = "too_large"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal Code = "internal"
)

// Error is the typed error carried on the wire and returned by every layer
// of the query API. It satisfies the error interface, so it flows through
// ordinary Go error returns and errors.As.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS, set on overloaded errors, is the server's estimate of
	// when retrying is worth it, derived from its observed queue drain
	// rate. HTTP layers mirror it as a Retry-After header; client.WithRetry
	// honors it (capped against the caller's context deadline).
	RetryAfterMS int `json:"retry_after_ms,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string { return string(e.Code) + ": " + e.Message }

// Errorf builds a typed error.
func Errorf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// FromError coerces an arbitrary error into a typed *Error: typed errors
// pass through unchanged (including wrapped ones), context expiry maps to
// CodeTimeout/CodeCanceled, and anything else is CodeInternal. A nil error
// maps to nil.
func FromError(err error) *Error {
	var ae *Error
	switch {
	case err == nil:
		return nil
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, context.DeadlineExceeded):
		return Errorf(CodeTimeout, "%v", err)
	case errors.Is(err, context.Canceled):
		return Errorf(CodeCanceled, "%v", err)
	default:
		return Errorf(CodeInternal, "%v", err)
	}
}

// HTTPStatus maps the error to its HTTP response status. 499 is the nginx
// client-closed-request convention (net/http cannot actually deliver it to
// the disconnected client, but it keeps logs truthful).
func (e *Error) HTTPStatus() int {
	switch e.Code {
	case CodeInvalidArgument:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeTimeout, CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case CodeCanceled:
		return 499
	case CodeOverloaded:
		return http.StatusServiceUnavailable
	case CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusInternalServerError
	}
}

// ErrorResponse is the JSON envelope every endpoint uses for top-level
// errors: {"error": {"code": "...", "message": "..."}}.
type ErrorResponse struct {
	Err Error `json:"error"`
}
