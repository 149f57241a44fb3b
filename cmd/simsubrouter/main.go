// Command simsubrouter is the distributed front door of a simsubd fleet:
// a coordinator that places trajectories across shard nodes with
// consistent hashing, scatter-gathers top-k queries with the engine's
// k-way merge, and ships its running global k-th-best distance to remote
// shards (QuerySpec.bound) so they prune like local ones. It speaks the
// same HTTP surface as a single simsubd (all but the streaming bulk
// ingest, POST /v2/load/stream), so existing clients point at it unchanged.
//
// Usage:
//
//	simsubrouter -addr :9080 -nodes http://n1:8080,http://n2:8080
//	simsubrouter -addr :9080 -nodes http://a:8080,http://b:8080,http://c:8080,http://d:8080 -replication 2
//
// With -replication R, consecutive runs of R nodes form replica groups:
// every trajectory is loaded to all replicas of its group, slow requests
// are hedged to the next replica after the primary's recent latency
// quantile, and a dead node costs nothing while a replica answers. An
// unreachable group degrades query answers to a typed partial result over
// the reachable corpus instead of failing them.
//
// The shard nodes must be dedicated to the router: it owns their
// trajectory ID space and assumes nothing else loads data into them.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"simsub/client"
	"simsub/internal/failpoint"
	"simsub/internal/router"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simsubrouter: ")
	var (
		addr        = flag.String("addr", ":9080", "listen address")
		nodes       = flag.String("nodes", "", "comma-separated backend simsubd base URLs (required)")
		replication = flag.Int("replication", 1, "replica-group size; must divide the node count")
		vnodes      = flag.Int("vnodes", 64, "consistent-hash virtual nodes per group")
		hedgeQ      = flag.Float64("hedge-quantile", 0.95, "node latency quantile that arms the hedge timer")
		hedgeMin    = flag.Duration("hedge-min", 10*time.Millisecond, "hedge-delay floor")
		noHedge     = flag.Bool("no-hedge", false, "disable hedged replica requests")
		noBound     = flag.Bool("no-bound", false, "disable two-wave k-th-best bound propagation")
		retries     = flag.Int("retries", 3, "per-node request attempts (backoff on overload and transient network errors)")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request fan-out timeout cap")
		nodeTimeout = flag.Duration("node-timeout", 15*time.Second, "per-node attempt timeout")
		failpoints  = flag.Bool("failpoints", false, "expose /v2/admin/failpoints for runtime fault injection (chaos testing only)")
	)
	flag.Parse()

	if armed, err := failpoint.EnableFromEnv(); err != nil {
		log.Fatalf("parsing %s: %v", failpoint.EnvVar, err)
	} else if len(armed) > 0 {
		log.Printf("failpoints armed from %s: %s", failpoint.EnvVar, strings.Join(armed, ", "))
	}

	var bases []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			bases = append(bases, n)
		}
	}
	if len(bases) == 0 {
		log.Fatal("-nodes is required, e.g. -nodes http://n1:8080,http://n2:8080")
	}

	rt, err := router.New(router.Config{
		Nodes:              bases,
		Replication:        *replication,
		VNodes:             *vnodes,
		Retry:              client.RetryPolicy{MaxAttempts: *retries},
		HedgeQuantile:      *hedgeQ,
		HedgeMin:           *hedgeMin,
		NoHedge:            *noHedge,
		NoBoundPropagation: *noBound,
		NodeTimeout:        *nodeTimeout,
	})
	if err != nil {
		log.Fatalf("configuring router: %v", err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           router.NewHandler(rt, router.HandlerOptions{MaxTimeout: *timeout, EnableFailpoints: *failpoints}),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("routing %d nodes in %d groups (replication %d) on %s",
		len(bases), len(bases)/(*replication), *replication, *addr)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	log.Print("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
}
