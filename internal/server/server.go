// Package server exposes the engine over an HTTP/JSON API. The wire types
// and the typed error model live in package api, and the endpoints speak
// them directly:
//
//	POST /v2/query         batch of query specs, one result per spec
//	POST /v2/query/stream  one spec, matches streamed as NDJSON records
//	POST /v2/load          bulk-load a JSON batch of trajectories
//	POST /v2/load/stream   streaming NDJSON bulk ingest (one trajectory per record)
//	GET  /v2/trajectories/{id}  fetch a stored trajectory by global ID
//	GET  /v2/stats         engine and server counters
//	GET/POST /v2/admin/policy, /v2/admin/encoder  serving-artifact registry
//	GET  /healthz          liveness probe (503 while recovering)
//
// The wire front end itself — JSON rendering, the typed error envelope,
// body decoding, the request deadline and the two query handlers — is
// written over api.Searcher / api.StreamSearcher and exported, so the
// distributed coordinator (internal/router) mounts the same code instead
// of a copy.
//
// A server booting over a persistent data directory starts in the
// "recovering" state: the data-path endpoints (loads, queries, trajectory
// fetches) are rejected with code overloaded — which the distributed
// router treats as degradable, failing over to replicas — until the
// process finishes replaying its log and flips to "ready" via SetReady.
//
// Every error is the typed envelope {"error": {"code", "message"}} with a
// machine-readable code (api.Code) mapped onto the HTTP status.
//
// Requests inherit the client connection's context, optionally tightened by
// a per-request timeout_ms and the server's MaxTimeout cap, so abandoned or
// slow queries are cancelled instead of holding worker slots.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"simsub/api"
	"simsub/internal/engine"
	"simsub/internal/failpoint"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// Options tunes an HTTP front end (a Server, or the router's Handler).
// The zero value is usable.
type Options struct {
	// MaxTimeout caps every request's search time (default 30s). A request
	// may ask for less via timeout_ms but never for more.
	MaxTimeout time.Duration
	// MaxBodyBytes limits request body size (default 64 MiB).
	MaxBodyBytes int64
	// MaxBatchSpecs caps the specs per /v2/query batch (default 256).
	MaxBatchSpecs int
	// EnableFailpoints exposes the /v2/admin/failpoints endpoint (and, on a
	// node, honors the server/request fault site). Off by default: a
	// production fleet cannot be chaos-tested by accident — arm it with the
	// -failpoints flag or the SIMSUB_FAILPOINTS_ADMIN env var of simsubd.
	EnableFailpoints bool
}

// WithDefaults returns the options with every unset field at its
// documented default.
func (o Options) WithDefaults() Options {
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.MaxBatchSpecs <= 0 {
		o.MaxBatchSpecs = 256
	}
	return o
}

// Server is the HTTP front end of an engine. It implements http.Handler.
type Server struct {
	eng   *engine.Engine
	opts  Options
	mux   *http.ServeMux
	start time.Time

	// ready gates the data-path endpoints; false while the node replays
	// its persistent log on boot (see SetReady).
	ready    atomic.Bool
	recovery atomic.Pointer[api.RecoveryInfo]

	// draining gates the load endpoints during graceful shutdown: once set,
	// new loads are rejected and Drain waits out the in-flight ones, so the
	// final snapshot+fsync can never race a batched commit still streaming
	// in. loadMu orders the draining check against the active-load count:
	// an admit either lands before Drain reads the count or observes
	// draining and rejects — never neither.
	draining   atomic.Bool
	loadMu     sync.Mutex
	loadActive int
	loadIdle   chan struct{}
}

// New builds a server over the engine. It starts ready; a process that
// recovers a data directory in the background calls SetReady(false)
// before serving and flips it back once the engine holds the full corpus.
func New(eng *engine.Engine, opts Options) *Server {
	opts = opts.WithDefaults()
	s := &Server{eng: eng, opts: opts, mux: http.NewServeMux(), start: time.Now()}
	s.ready.Store(true)
	s.mux.HandleFunc("POST /v2/query", s.gated(opts.QueryHandler(eng)))
	s.mux.HandleFunc("POST /v2/query/stream", s.gated(opts.QueryStreamHandler(eng)))
	s.mux.HandleFunc("POST /v2/load", s.gated(s.handleLoad))
	s.mux.HandleFunc("POST /v2/load/stream", s.gated(s.handleLoadStream))
	s.mux.HandleFunc("GET /v2/trajectories/{id}", s.gated(s.handleGetTrajectory))
	s.mux.HandleFunc("GET /v2/stats", s.handleStats)
	s.mux.HandleFunc("POST /v2/admin/policy", s.handlePolicySwap)
	s.mux.HandleFunc("GET /v2/admin/policy", s.handlePolicyGet)
	s.mux.HandleFunc("POST /v2/admin/encoder", s.handleEncoderSwap)
	s.mux.HandleFunc("GET /v2/admin/encoder", s.handleEncoderGet)
	if opts.EnableFailpoints {
		s.mux.Handle("/v2/admin/failpoints", FailpointsHandler())
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// SetReady flips the node's serving state. While not ready, data-path
// endpoints answer code overloaded (degradable: the router fails over to
// replicas) and /healthz answers 503 {"status":"recovering"}.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// SetRecovery records what boot-time crash recovery did; surfaced under
// "recovery" in /v2/stats.
func (s *Server) SetRecovery(info api.RecoveryInfo) { s.recovery.Store(&info) }

func (s *Server) state() string {
	if s.ready.Load() {
		return api.StateReady
	}
	return api.StateRecovering
}

// gated wraps a data-path handler so it is rejected while the node is
// recovering.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			WriteErr(w, api.Errorf(api.CodeOverloaded, "node is recovering its persistent log; retry shortly"))
			return
		}
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.opts.EnableFailpoints {
		if err := failpoint.InjectCtx(r.Context(), "server/request"); err != nil {
			if errors.Is(err, failpoint.ErrDrop) {
				// sever the connection without a response, as a dying node would
				panic(http.ErrAbortHandler)
			}
			WriteErr(w, api.Errorf(api.CodeInternal, "%v", err))
			return
		}
	}
	// the streaming bulk-ingest endpoint is exempt from the body cap: it
	// decodes incrementally and never buffers the corpus, so its size is
	// bounded by the store, not by memory — its handler holds each record
	// to the cap instead
	if !(r.Method == http.MethodPost && r.URL.Path == "/v2/load/stream") {
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	}
	s.mux.ServeHTTP(w, r)
}

// Drain stops admitting new load requests (they answer 503 overloaded with
// a Retry-After) and waits for the in-flight ones to commit, or for ctx to
// expire. Call it BEFORE http.Server.Shutdown and the store's final
// snapshot: connection drain alone cannot order an in-flight streaming
// bulk load's batched commit before the snapshot's fsync.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	idle := make(chan struct{})
	s.loadMu.Lock()
	if s.loadActive == 0 {
		s.loadMu.Unlock()
		return nil
	}
	s.loadIdle = idle
	s.loadMu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admitLoad gates a load request behind the drain and load-shedding
// states, registering it in the active-load count on success; the caller
// must `defer s.endLoad()`.
func (s *Server) admitLoad(w http.ResponseWriter) bool {
	reject := func(ae *api.Error) bool {
		ae.RetryAfterMS = int(s.eng.RetryAfterHint().Milliseconds())
		WriteErr(w, ae)
		return false
	}
	if s.eng.Shedding() {
		// loads shed first: bulk ingestion is the most deferrable work
		return reject(api.Errorf(api.CodeOverloaded, "shedding bulk loads while queries are backed up"))
	}
	s.loadMu.Lock()
	if s.draining.Load() {
		s.loadMu.Unlock()
		return reject(api.Errorf(api.CodeOverloaded, "node is draining for shutdown"))
	}
	s.loadActive++
	s.loadMu.Unlock()
	return true
}

// endLoad retires one admitted load, waking a pending Drain when the last
// one finishes.
func (s *Server) endLoad() {
	s.loadMu.Lock()
	s.loadActive--
	if s.loadActive == 0 && s.loadIdle != nil {
		close(s.loadIdle)
		s.loadIdle = nil
	}
	s.loadMu.Unlock()
}

// WriteJSON renders v as the response body under the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
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

// Decode parses the JSON request body into v, rejecting unknown fields;
// on failure it has answered with the typed error (too_large for a body
// over the front end's cap) and reports false.
func Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			WriteErr(w, api.Errorf(api.CodeTooLarge, "request body exceeds %d bytes", maxErr.Limit))
			return false
		}
		WriteErr(w, api.Errorf(api.CodeInvalidArgument, "bad request body: %v", err))
		return false
	}
	return true
}

// RequestContext derives the search context: the client connection's
// context bounded by min(timeout_ms, MaxTimeout). The comparison happens
// in millisecond space so an absurd client value cannot overflow the
// duration multiply — it just gets the MaxTimeout cap.
func (o Options) RequestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := o.MaxTimeout
	if timeoutMS > 0 && int64(timeoutMS) < int64(d/time.Millisecond) {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// handleLoad answers POST /v2/load: one JSON batch validated and committed
// whole, answered with the engine-assigned global ID of every trajectory.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if !s.admitLoad(w) {
		return
	}
	defer s.endLoad()
	var req api.LoadRequest
	if !Decode(w, r, &req) {
		return
	}
	if len(req.Trajectories) == 0 {
		WriteErr(w, api.Errorf(api.CodeInvalidArgument, "no trajectories in request"))
		return
	}
	ts := make([]traj.Trajectory, len(req.Trajectories))
	for i, wt := range req.Trajectories {
		t, aerr := wt.ToTraj()
		if aerr != nil {
			WriteErr(w, api.Errorf(api.CodeInvalidArgument, "trajectory %d: %s", i, aerr.Message))
			return
		}
		ts[i] = t
	}
	ids, err := s.eng.Add(ts)
	WriteResult(w, api.LoadResponse{Loaded: len(ids), IDs: ids, Total: s.eng.Len()}, err)
}

// streamLoadBatch is how many NDJSON records are buffered before each
// engine.Add: large enough to amortize the per-batch log write and index
// append, small enough that memory stays flat at any corpus size.
const streamLoadBatch = 512

// handleLoadStream is the streaming bulk-ingest endpoint: an NDJSON body
// with one trajectory object per record ({"points":[[x,y,t],...]}, other
// keys such as "id" ignored — the engine assigns global IDs; the grammar
// is traj.Scanner's). Records are validated and committed in batches as
// they arrive, so a 1M-trajectory corpus streams through constant memory
// straight into the engine (and its write-ahead log when persistence is
// on): the body as a whole is exempt from MaxBodyBytes, each record is
// held to it. On a mid-stream error, records of already-committed batches
// remain loaded; the error message carries the committed count.
func (s *Server) handleLoadStream(w http.ResponseWriter, r *http.Request) {
	if !s.admitLoad(w) {
		return
	}
	defer s.endLoad()
	start := time.Now()
	sc := traj.NewScanner(r.Body, int(min(s.opts.MaxBodyBytes, math.MaxInt)))
	batch := make([]traj.Trajectory, 0, streamLoadBatch)
	firstID, loaded := -1, 0
	flush := func() *api.Error {
		if len(batch) == 0 {
			return nil
		}
		ids, err := s.eng.Add(batch)
		if err != nil {
			return api.FromError(err)
		}
		if firstID < 0 {
			firstID = ids[0]
		}
		loaded += len(ids)
		batch = batch[:0]
		return nil
	}
	recNo := 0
	for {
		t, err := sc.Next()
		if err == io.EOF {
			break
		}
		recNo++
		var invalid *traj.InvalidError
		switch {
		case err == nil:
		case errors.As(err, &invalid):
			WriteErr(w, api.Errorf(api.CodeInvalidArgument,
				"stream record %d (%d records already committed): %s", recNo, loaded, invalid.Msg))
			return
		case errors.Is(err, traj.ErrRecordTooLarge):
			WriteErr(w, api.Errorf(api.CodeTooLarge,
				"stream record %d exceeds %d bytes (%d records already committed)", recNo, s.opts.MaxBodyBytes, loaded))
			return
		default:
			WriteErr(w, api.Errorf(api.CodeInvalidArgument,
				"stream record %d: bad JSON (%d records already committed): %v", recNo, loaded, err))
			return
		}
		batch = append(batch, t)
		if len(batch) == streamLoadBatch {
			if aerr := flush(); aerr != nil {
				WriteErr(w, aerr)
				return
			}
		}
	}
	if aerr := flush(); aerr != nil {
		WriteErr(w, aerr)
		return
	}
	if recNo == 0 {
		WriteErr(w, api.Errorf(api.CodeInvalidArgument, "empty load stream"))
		return
	}
	WriteJSON(w, http.StatusOK, api.BulkLoadResponse{
		Loaded:  loaded,
		FirstID: firstID,
		Total:   s.eng.Len(),
		TookMS:  api.TookMS(start),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, api.StatsResponse{
		Engine:        s.eng.Stats(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		Measures:      sim.Names(),
		State:         s.state(),
		Recovery:      s.recovery.Load(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": api.StateRecovering})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
