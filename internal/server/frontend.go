package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"time"

	"simsub/api"
)

// This file is the one /v2 HTTP front end: JSON rendering, the typed error
// envelope, body decoding, the request deadline and one handler per shared
// route, written over api.Service. A node mounts it over its *Server, the
// distributed coordinator (internal/router) over its *Router, so both
// tiers answer every shared route through the same code.

// Mux returns a ServeMux carrying the shared /v2 routes — queries, loads,
// trajectory fetches, stats and the artifact registry — every one answered
// over svc with its request body held to MaxBodyBytes, plus
// /v2/admin/failpoints when EnableFailpoints is set. gate, when non-nil,
// wraps the data-path routes (queries, loads, trajectory fetches) ahead of
// body decoding: the node's recovering gate. The caller mounts its
// tier-specific routes (/healthz; on a node, /v2/load/stream) beside them.
func (o Options) Mux(svc api.Service, gate func(http.HandlerFunc) http.HandlerFunc) *http.ServeMux {
	if gate == nil {
		gate = func(h http.HandlerFunc) http.HandlerFunc { return h }
	}
	start := time.Now()
	mux := http.NewServeMux()
	handle := func(pattern string, h http.Handler) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			r.Body = http.MaxBytesReader(w, r.Body, o.MaxBodyBytes)
			h.ServeHTTP(w, r)
		})
	}
	handle("POST /v2/query", gate(o.handleQuery(svc)))
	handle("POST /v2/query/stream", gate(o.handleQueryStream(svc)))
	handle("POST /v2/load", gate(o.handleLoad(svc)))
	handle("GET /v2/trajectories/{id}", gate(o.handleGetTrajectory(svc)))
	handle("GET /v2/stats", get(o, func(ctx context.Context) (*api.StatsResponse, error) {
		resp, err := svc.Stats(ctx)
		if err == nil {
			resp.UptimeSeconds = time.Since(start).Seconds()
			resp.Goroutines = runtime.NumGoroutine()
		}
		return resp, err
	}))
	handle("POST /v2/admin/policy", post(o, svc.SwapPolicy))
	handle("GET /v2/admin/policy", get(o, svc.Policy))
	handle("POST /v2/admin/encoder", post(o, svc.SwapEncoder))
	handle("GET /v2/admin/encoder", get(o, svc.Encoder))
	if o.EnableFailpoints {
		handle("/v2/admin/failpoints", FailpointsHandler())
	}
	return mux
}

// post is the shape of every shared POST route but the queries: decode the
// body, bound the call by the request deadline, render the outcome.
func post[Req, Resp any](o Options, call func(context.Context, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !Decode(w, r, &req) {
			return
		}
		ctx, cancel := o.requestContext(r, 0)
		defer cancel()
		resp, err := call(ctx, req)
		WriteResult(w, resp, err)
	}
}

// get is post for the bodiless GET routes.
func get[Resp any](o Options, call func(context.Context) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := o.requestContext(r, 0)
		defer cancel()
		resp, err := call(ctx)
		WriteResult(w, resp, err)
	}
}

// handleQuery answers POST /v2/query: a batch of specs answered
// concurrently, one QueryResult per spec in order. Spec-level failures are
// reported inside their result; only envelope-level problems (no specs,
// oversized batch, bad JSON) fail the request.
func (o Options) handleQuery(s api.Searcher) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req api.Query
		if !Decode(w, r, &req) {
			return
		}
		if len(req.Specs) == 0 {
			WriteErr(w, api.Errorf(api.CodeInvalidArgument, "query batch has no specs"))
			return
		}
		if len(req.Specs) > o.MaxBatchSpecs {
			WriteErr(w, api.Errorf(api.CodeInvalidArgument,
				"batch of %d specs exceeds the limit of %d", len(req.Specs), o.MaxBatchSpecs))
			return
		}
		ctx, cancel := o.requestContext(r, req.TimeoutMS)
		defer cancel()
		req.TimeoutMS = 0 // already applied (and capped) by requestContext
		resp, err := s.Query(ctx, req)
		WriteResult(w, resp, err)
	}
}

// handleQueryStream answers POST /v2/query/stream: one spec whose matches
// are delivered as NDJSON StreamEvent records the moment they enter the
// running top-k, each followed by a flush so clients see answers while the
// scan is still running, terminated by a summary record carrying the
// authoritative final ranking. Failures before the first record use the
// ordinary error envelope and status; failures mid-stream arrive as a
// trailing error record (the status line is long gone by then).
func (o Options) handleQueryStream(s api.StreamSearcher) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req api.StreamQuery
		if !Decode(w, r, &req) {
			return
		}
		ctx, cancel := o.requestContext(r, req.TimeoutMS)
		defer cancel()

		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		wrote := false
		send := func(ev api.StreamEvent) error {
			if err := enc.Encode(ev); err != nil {
				return err
			}
			wrote = true
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		}
		sum, err := s.QueryStream(ctx, req.Spec, func(m api.Match) error {
			return send(api.StreamEvent{Match: &m})
		})
		if err == nil {
			_ = send(api.StreamEvent{Summary: sum})
		} else if ae := api.FromError(err); wrote {
			_ = send(api.StreamEvent{Error: ae})
		} else {
			WriteErr(w, ae)
		}
	}
}

// handleLoad answers POST /v2/load: the body is decoded by
// api.ReadLoadRequest, the trajectory scanner's strict grammar, rather than
// by Decode's reflection, and the batch is committed whole by svc.Load.
func (o Options) handleLoad(svc api.Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, err := api.ReadLoadRequest(r.Body)
		if err != nil {
			writeBodyErr(w, err)
			return
		}
		ctx, cancel := o.requestContext(r, 0)
		defer cancel()
		resp, err := svc.Load(ctx, req.Trajectories)
		WriteResult(w, resp, err)
	}
}

// handleGetTrajectory answers GET /v2/trajectories/{id} with the stored
// trajectory, or a typed error: invalid_argument for a non-integer id,
// not_found for an unassigned one.
func (o Options) handleGetTrajectory(svc api.Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			WriteErr(w, api.Errorf(api.CodeInvalidArgument, "trajectory id %q is not an integer", r.PathValue("id")))
			return
		}
		ctx, cancel := o.requestContext(r, 0)
		defer cancel()
		rec, err := svc.GetTrajectory(ctx, id)
		WriteResult(w, rec, err)
	}
}

// WriteJSON renders v as the response body under the given status: the
// bytes json.Encoder.Encode writes, which a query answer
// (*api.QueryResponse) gets from api's query-response codec without
// reflection. v is encoded before the status is written, so a value JSON
// cannot express (a NaN or ±Inf) answers the typed internal error instead
// of the status with an empty body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		ae := api.Errorf(api.CodeInternal, "encoding the response: %v", err)
		code = ae.HTTPStatus()
		body, _ = encodeJSON(api.ErrorResponse{Err: *ae}) // strings and ints: cannot fail
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body) // the status is sent; a failed write has no one left to tell
}

// encodeJSON returns v as json.Encoder.Encode writes it, newline included.
func encodeJSON(v any) ([]byte, error) {
	var body []byte
	var err error
	if qr, ok := v.(*api.QueryResponse); ok {
		body, err = qr.AppendJSON(nil)
	} else {
		body, err = json.Marshal(v)
	}
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// WriteErr renders the typed error envelope with its mapped HTTP status.
// Every overloaded (503) response carries a Retry-After header: the
// error's drain-rate-derived hint when it has one, a conservative 1s
// otherwise.
func WriteErr(w http.ResponseWriter, ae *api.Error) {
	if ae.Code == api.CodeOverloaded {
		if ae.RetryAfterMS <= 0 {
			cp := *ae
			cp.RetryAfterMS = 1000
			ae = &cp
		}
		w.Header().Set("Retry-After", strconv.Itoa((ae.RetryAfterMS+999)/1000))
	}
	WriteJSON(w, ae.HTTPStatus(), api.ErrorResponse{Err: *ae})
}

// WriteResult renders a call's outcome: v under 200, or err as its typed
// envelope.
func WriteResult(w http.ResponseWriter, v any, err error) {
	if err != nil {
		WriteErr(w, api.FromError(err))
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

// errTrailing rejects a body that goes on after its one JSON value.
var errTrailing = errors.New("trailing data after the JSON value")

// Decode parses the JSON request body — exactly one value, rejecting
// unknown fields and anything but whitespace after it — into v; on failure
// it has answered with the typed error (too_large for a body over the
// front end's cap) and reports false. It decodes the envelopes of the
// query and admin routes by reflection; the trajectories inside them
// decode through api.Trajectory.UnmarshalJSON, the trajectory scanner's
// strict grammar, and POST /v2/load does not come here at all.
func Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if !errors.As(err, new(*http.MaxBytesError)) {
			err = errTrailing
		}
	}
	writeBodyErr(w, err)
	return false
}

// writeBodyErr answers a request whose body could not be decoded:
// too_large when reading it ran into the front end's cap, invalid_argument
// otherwise.
func writeBodyErr(w http.ResponseWriter, err error) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		WriteErr(w, api.Errorf(api.CodeTooLarge, "request body exceeds %d bytes", maxErr.Limit))
		return
	}
	WriteErr(w, api.Errorf(api.CodeInvalidArgument, "bad request body: %v", err))
}

// requestContext derives the search context: the client connection's
// context bounded by min(timeout_ms, MaxTimeout). The comparison happens
// in millisecond space so an absurd client value cannot overflow the
// duration multiply — it just gets the MaxTimeout cap.
func (o Options) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := o.MaxTimeout
	if timeoutMS > 0 && int64(timeoutMS) < int64(d/time.Millisecond) {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// ReadArtifactFile reads a serving artifact (kind "policy" or "encoder")
// from a local file, returning the bytes parse consumed and what it made
// of them. Every tier classifies a failure the same way: a missing file is
// not_found; any other I/O failure (permissions, a directory, ...) is
// internal — not a bad artifact, so the operator is not misdirected toward
// re-training; bytes that do not parse are invalid_argument, without the
// parse error, which can quote fragments of a file local to the server.
func ReadArtifactFile[T any](kind, path string, parse func(io.Reader) (T, error)) ([]byte, T, *api.Error) {
	var zero T
	f, err := os.Open(path)
	if err == nil {
		defer f.Close()
		var raw bytes.Buffer
		fr := &errReader{r: f}
		v, perr := parse(io.TeeReader(fr, &raw))
		if perr == nil {
			return raw.Bytes(), v, nil
		}
		// a parser may not wrap the read error it stopped on
		err = perr
		if fr.err != nil {
			err = fr.err
		}
	}
	var perr *fs.PathError
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, zero, api.Errorf(api.CodeNotFound, "%s file %q does not exist", kind, path)
	case errors.As(err, &perr):
		return nil, zero, api.Errorf(api.CodeInternal, "reading %s file %q: %v", kind, path, perr.Err)
	default:
		return nil, zero, api.Errorf(api.CodeInvalidArgument, "file %q is not a valid %s", path, kind)
	}
}

// errReader remembers the first read error other than EOF, telling an
// I/O failure apart from bytes the parser rejects.
type errReader struct {
	r   io.Reader
	err error
}

func (e *errReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err != nil && err != io.EOF && e.err == nil {
		e.err = err
	}
	return n, err
}

// loadArtifact resolves a swap request's serving artifact (kind "policy"
// or "encoder") from a server-local file path (ReadArtifactFile) or inline
// base64 bytes.
func loadArtifact[T any](kind, path, b64 string, parse func(io.Reader) (T, error)) (T, *api.Error) {
	if path != "" {
		_, v, aerr := ReadArtifactFile(kind, path, parse)
		return v, aerr
	}
	var zero T
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return zero, api.Errorf(api.CodeInvalidArgument, "decoding %s_b64: %v", kind, err)
	}
	// the caller supplied these bytes, so the parse error leaks nothing
	v, err := parse(bytes.NewReader(raw))
	if err != nil {
		return zero, api.Errorf(api.CodeInvalidArgument, "loading %s: %v", kind, err)
	}
	return v, nil
}
