package router

import (
	"context"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"simsub/api"
	"simsub/internal/server"
)

// HandlerOptions tunes the router's HTTP front end: the node server's
// options, except that MaxTimeout defaults to 60s — a fleet fan-out
// tolerates more than a single node — and EnableFailpoints arms the
// router's own fault sites (router/transport).
type HandlerOptions = server.Options

// Handler is the HTTP front end of a Router: the wire surface of a single
// simsubd (package internal/server, whose front end it mounts) minus the
// streaming bulk ingest, so a client.Client pointed at a router cannot
// tell it from a node on any other route. It implements http.Handler.
type Handler struct {
	r     *Router
	opts  HandlerOptions
	mux   *http.ServeMux
	start time.Time
}

// NewHandler builds the HTTP tier over a Router.
func NewHandler(r *Router, opts HandlerOptions) *Handler {
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = 60 * time.Second
	}
	opts = opts.WithDefaults()
	h := &Handler{r: r, opts: opts, mux: http.NewServeMux(), start: time.Now()}
	h.mux.HandleFunc("POST /v2/query", opts.QueryHandler(r))
	h.mux.HandleFunc("POST /v2/query/stream", opts.QueryStreamHandler(r))
	h.mux.HandleFunc("POST /v2/load", h.handleLoad)
	h.mux.HandleFunc("GET /v2/trajectories/{id}", h.handleGetTrajectory)
	h.mux.HandleFunc("GET /v2/stats", h.handleStats)
	h.mux.HandleFunc("POST /v2/admin/policy", h.handlePolicySwap)
	h.mux.HandleFunc("GET /v2/admin/policy", h.handlePolicyGet)
	h.mux.HandleFunc("POST /v2/admin/encoder", h.handleEncoderSwap)
	h.mux.HandleFunc("GET /v2/admin/encoder", h.handleEncoderGet)
	h.mux.HandleFunc("GET /healthz", h.handleHealthz)
	if opts.EnableFailpoints {
		h.mux.Handle("/v2/admin/failpoints", server.FailpointsHandler())
	}
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes)
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req api.LoadRequest
	if !server.Decode(w, r, &req) {
		return
	}
	ctx, cancel := h.opts.RequestContext(r, 0)
	defer cancel()
	resp, err := h.r.Load(ctx, req.Trajectories)
	server.WriteResult(w, resp, err)
}

func (h *Handler) handleGetTrajectory(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		server.WriteErr(w, api.Errorf(api.CodeInvalidArgument, "trajectory id %q is not an integer", r.PathValue("id")))
		return
	}
	ctx, cancel := h.opts.RequestContext(r, 0)
	defer cancel()
	rec, err := h.r.GetTrajectory(ctx, id)
	server.WriteResult(w, rec, err)
}

func (h *Handler) handlePolicySwap(w http.ResponseWriter, r *http.Request) {
	var req api.PolicySwapRequest
	if !server.Decode(w, r, &req) {
		return
	}
	ctx, cancel := h.opts.RequestContext(r, 0)
	defer cancel()
	info, err := h.r.SwapPolicy(ctx, req)
	server.WriteResult(w, info, err)
}

func (h *Handler) handlePolicyGet(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := h.opts.RequestContext(r, 0)
	defer cancel()
	info, err := h.r.Policy(ctx)
	server.WriteResult(w, info, err)
}

func (h *Handler) handleEncoderSwap(w http.ResponseWriter, r *http.Request) {
	var req api.EncoderSwapRequest
	if !server.Decode(w, r, &req) {
		return
	}
	ctx, cancel := h.opts.RequestContext(r, 0)
	defer cancel()
	info, err := h.r.SwapEncoder(ctx, req)
	server.WriteResult(w, info, err)
}

func (h *Handler) handleEncoderGet(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := h.opts.RequestContext(r, 0)
	defer cancel()
	info, err := h.r.Encoder(ctx)
	server.WriteResult(w, info, err)
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := h.opts.RequestContext(r, 0)
	defer cancel()
	resp, err := h.r.Stats(ctx)
	if err == nil {
		resp.UptimeSeconds = time.Since(h.start).Seconds()
		resp.Goroutines = runtime.NumGoroutine()
	}
	server.WriteResult(w, resp, err)
}

// handleHealthz reports liveness of the coordinator AND readiness of the
// fleet: 200 only while every shard group has a reachable replica.
func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	server.WriteResult(w, map[string]string{"status": "ok"}, h.r.Health(ctx))
}
