package router

import (
	"context"
	"net/http"
	"time"

	"simsub/internal/server"
)

// HandlerOptions tunes the router's HTTP front end: the node server's
// options, except that MaxTimeout defaults to 60s — a fleet fan-out
// tolerates more than a single node — and EnableFailpoints arms the
// router's own fault sites (router/transport).
type HandlerOptions = server.Options

// NewHandler builds the HTTP tier over a Router: the node's own front end
// (server.Options.Mux) over the Router's api.Service, so a client.Client
// pointed at a router cannot tell it from a node on any route but the
// node-only streaming bulk ingest, plus the router's own /healthz.
func NewHandler(r *Router, opts HandlerOptions) http.Handler {
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = 60 * time.Second
	}
	opts = opts.WithDefaults()
	mux := opts.Mux(r, nil)
	// liveness of the coordinator AND readiness of the fleet: 200 only
	// while every shard group has a reachable replica
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		ctx, cancel := context.WithTimeout(req.Context(), 5*time.Second)
		defer cancel()
		server.WriteResult(w, map[string]string{"status": "ok"}, r.Health(ctx))
	})
	return mux
}
