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
// body decoding, the request deadline and one handler per shared route —
// is written once over api.Service (Options.Mux). A *Server implements
// api.Service over the engine and mounts it; the distributed coordinator
// (internal/router) mounts the same front end over its *Router. Only
// /v2/load/stream and /healthz are the node's own.
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
	"errors"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"simsub/api"
	"simsub/internal/engine"
	"simsub/internal/failpoint"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// Options tunes the HTTP front end, a node's (New) or a router's
// (router.NewHandler). The zero value is usable.
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

// Server is the HTTP front end of an engine. It implements http.Handler,
// and api.Service over the engine — the node's side of the shared front
// end.
type Server struct {
	eng  *engine.Engine
	opts Options
	mux  *http.ServeMux

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
	s := &Server{eng: eng, opts: opts}
	s.ready.Store(true)
	s.mux = opts.Mux(s, s.gated)
	// the streaming bulk-ingest route is exempt from the body cap: it
	// decodes incrementally and never buffers the corpus, so its size is
	// bounded by the store, not by memory — its handler holds each record
	// to the cap instead
	s.mux.HandleFunc("POST /v2/load/stream", s.gated(s.handleLoadStream))
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
// states, registering it in the active-load count on success (the caller
// must `defer s.endLoad()`) and answering a typed overloaded rejection
// otherwise.
func (s *Server) admitLoad() *api.Error {
	reject := func(ae *api.Error) *api.Error {
		ae.RetryAfterMS = int(s.eng.RetryAfterHint().Milliseconds())
		return ae
	}
	if s.eng.Shedding() {
		// loads shed first: bulk ingestion is the most deferrable work
		return reject(api.Errorf(api.CodeOverloaded, "shedding bulk loads while queries are backed up"))
	}
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	if s.draining.Load() {
		return reject(api.Errorf(api.CodeOverloaded, "node is draining for shutdown"))
	}
	s.loadActive++
	return nil
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
	if aerr := s.admitLoad(); aerr != nil {
		WriteErr(w, aerr)
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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": api.StateRecovering})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// The node's side of the shared front end: api.Service over the engine.

var _ api.Service = (*Server)(nil)

// Query implements api.Searcher over the engine.
func (s *Server) Query(ctx context.Context, req api.Query) (*api.QueryResponse, error) {
	return s.eng.Query(ctx, req)
}

// QueryStream implements api.StreamSearcher over the engine.
func (s *Server) QueryStream(ctx context.Context, spec api.QuerySpec, emit func(api.Match) error) (*api.StreamSummary, error) {
	return s.eng.QueryStream(ctx, spec, emit)
}

// Load validates a JSON batch and commits it whole, answering the
// engine-assigned global ID of every trajectory; it is admitted behind the
// drain and load-shedding gates like the streaming ingest.
func (s *Server) Load(_ context.Context, wts []api.Trajectory) (*api.LoadResponse, error) {
	if aerr := s.admitLoad(); aerr != nil {
		return nil, aerr
	}
	defer s.endLoad()
	ts, aerr := api.ToTrajs(wts)
	if aerr != nil {
		return nil, aerr
	}
	ids, err := s.eng.Add(ts)
	if err != nil {
		return nil, err
	}
	return &api.LoadResponse{Loaded: len(ids), IDs: ids, Total: s.eng.Len()}, nil
}

// GetTrajectory returns the stored trajectory, or a typed not_found for an
// unassigned ID.
func (s *Server) GetTrajectory(_ context.Context, id int) (*api.TrajectoryRecord, error) {
	t, ok := s.eng.Traj(id)
	if !ok {
		return nil, api.Errorf(api.CodeNotFound, "no trajectory with id %d", id)
	}
	return &api.TrajectoryRecord{ID: id, Trajectory: api.FromTraj(t)}, nil
}

// SwapPolicy loads a policy from a server-local file path or inline base64
// bytes, validates it, and registers it as the serving policy of the "rls"
// / "rls-skip" algorithms. The swap purges the result cache and changes
// the policy fingerprint, so no cached ranking computed under the previous
// policy can ever be served again. A policy that fails validation
// (corrupted file, inconsistent network shape, non-finite weights) is
// rejected with invalid_argument and the previous registration keeps
// serving.
func (s *Server) SwapPolicy(_ context.Context, req api.PolicySwapRequest) (*api.PolicyInfo, error) {
	if aerr := req.Validate(); aerr != nil {
		return nil, aerr
	}
	p, aerr := loadArtifact("policy", req.Path, req.PolicyB64, rl.Load)
	if aerr != nil {
		return nil, aerr
	}
	info, err := s.eng.SetPolicyCompiled(p, req.CompileResolution)
	if err != nil {
		return nil, err
	}
	return &info, nil
}

// Policy describes the registered policy, or answers a typed not_found
// when none is loaded.
func (s *Server) Policy(context.Context) (*api.PolicyInfo, error) {
	info, ok := s.eng.Policy()
	if !ok {
		return nil, api.Errorf(api.CodeNotFound, "no policy loaded")
	}
	return &info, nil
}

// SwapEncoder loads a t2vec encoder from a server-local file path or
// inline base64 bytes and registers it as the corpus embedder.
// Registration re-embeds every stored trajectory, rebuilds the per-shard
// ANN indexes, purges the result cache and changes the encoder
// fingerprint — so the ann prefilter and the "embed" ranking switch
// atomically and no stale cached ranking survives. An encoder that fails
// to parse is rejected with invalid_argument and the previous registration
// keeps serving.
func (s *Server) SwapEncoder(_ context.Context, req api.EncoderSwapRequest) (*api.EncoderInfo, error) {
	if aerr := req.Validate(); aerr != nil {
		return nil, aerr
	}
	m, aerr := loadArtifact("encoder", req.Path, req.EncoderB64, t2vec.Load)
	if aerr != nil {
		return nil, aerr
	}
	info, err := s.eng.SetEncoder(m)
	if err != nil {
		return nil, err
	}
	return &info, nil
}

// Encoder describes the registered encoder, or answers a typed not_found
// when none is loaded.
func (s *Server) Encoder(context.Context) (*api.EncoderInfo, error) {
	info, ok := s.eng.Encoder()
	if !ok {
		return nil, api.Errorf(api.CodeNotFound, "no encoder loaded")
	}
	return &info, nil
}

// Stats reports the engine counters, the registered measures and the
// node's lifecycle state and recovery record; the front end stamps uptime
// and goroutines.
func (s *Server) Stats(context.Context) (*api.StatsResponse, error) {
	return &api.StatsResponse{
		Engine:   s.eng.Stats(),
		Measures: sim.Names(),
		State:    s.state(),
		Recovery: s.recovery.Load(),
	}, nil
}
