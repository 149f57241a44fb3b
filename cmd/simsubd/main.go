// Command simsubd serves similar subtrajectory search over HTTP: a sharded
// in-memory trajectory store answering concurrent top-k queries under any
// registered measure and algorithm, with a bounded worker pool, per-request
// timeouts and an LRU result cache. With -data-dir the corpus is also
// durable: loads append to a checksummed segment log, metadata is
// snapshotted periodically, and on boot the node recovers the log (serving
// 503 "recovering" until the replay finishes) before flipping to ready.
//
// Usage:
//
//	simsubd -addr :8080 -shards 8 -workers 16 -cache 4096
//	simsubd -addr :8080 -data porto.csv -index none
//	simsubd -addr :8080 -policy skip.policy -quality-sample 0.01
//	simsubd -addr :8080 -encoder t2vec.model -recall-sample 0.05
//	simsubd -addr :8080 -data-dir /var/lib/simsub -snapshot-interval 5m
//
// Endpoints: POST /v2/query (batched specs), POST /v2/query/stream (NDJSON
// incremental matches), GET /v2/trajectories/{id}, POST /v2/load (JSON
// batch), POST /v2/load/stream (NDJSON bulk ingest), GET /v2/stats, the
// /v2/admin registry endpoints and GET /healthz. Errors are typed
// {"error": {"code", "message"}} envelopes. See docs/API.md for the full
// endpoint reference and README.md for an example curl session; package
// client is the matching Go client.
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

	"simsub/api"
	"simsub/internal/engine"
	"simsub/internal/failpoint"
	"simsub/internal/rl"
	"simsub/internal/server"
	"simsub/internal/storage"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simsubd: ")
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		shards     = flag.Int("shards", 4, "store shard count")
		workers    = flag.Int("workers", 0, "bounded worker-pool size (0 = GOMAXPROCS)")
		cacheSize  = flag.Int("cache", 1024, "LRU result-cache entries (0 disables)")
		indexName  = flag.String("index", "rtree", "per-shard index: rtree (MBR-intersecting candidates only) or none (scan every trajectory)")
		dataPath   = flag.String("data", "", "optional CSV of trajectories to preload")
		dataDir    = flag.String("data-dir", "", "directory for the persistent segment log (empty = in-memory only)")
		snapEvery  = flag.Duration("snapshot-interval", 5*time.Minute, "how often to snapshot derived metadata when -data-dir is set")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-request search timeout cap")
		policyPath = flag.String("policy", "", "optional RLS/RLS-Skip policy file (cmd/train -mode rls) enabling the learned algorithms")
		policyRes  = flag.Int("policy-compile", 0, "compile the -policy network onto a dense action table at this grid resolution (0 = serve the network directly)")
		qualitySam = flag.Float64("quality-sample", 0, "fraction of learned-search queries re-scored against the exact ranking for serving-quality stats")
		encPath    = flag.String("encoder", "", "optional t2vec encoder file (cmd/train -mode t2vec) enabling the ann prefilter and the embed algorithm")
		recallSam  = flag.Float64("recall-sample", 0, "fraction of ann-prefiltered queries re-scored against the exhaustive candidate scan for recall stats")
		failpoints = flag.Bool("failpoints", false, "expose /v2/admin/failpoints for runtime fault injection (chaos testing only)")
	)
	flag.Parse()

	if armed, err := failpoint.EnableFromEnv(); err != nil {
		log.Fatalf("parsing %s: %v", failpoint.EnvVar, err)
	} else if len(armed) > 0 {
		log.Printf("failpoints armed from %s: %s", failpoint.EnvVar, strings.Join(armed, ", "))
	}

	var kind engine.IndexKind
	switch *indexName {
	case "rtree":
		kind = engine.RTree
	case "none":
		kind = engine.ScanAll
	default:
		log.Fatalf("unknown -index %q (want rtree or none)", *indexName)
	}

	eng := engine.New(engine.Config{
		Shards:        *shards,
		Workers:       *workers,
		CacheSize:     *cacheSize,
		Index:         kind,
		QualitySample: *qualitySam,
		RecallSample:  *recallSam,
	})
	if *policyRes != 0 && *policyPath == "" {
		log.Fatalf("-policy-compile requires -policy")
	}
	if *policyPath != "" {
		p, err := rl.LoadFile(*policyPath)
		if err != nil {
			log.Fatalf("loading policy %s: %v", *policyPath, err)
		}
		info, err := eng.SetPolicyCompiled(p, *policyRes)
		if err != nil {
			log.Fatalf("registering policy %s: %v", *policyPath, err)
		}
		if info.Compiled {
			log.Printf("serving %s policy from %s (k=%d, fingerprint %s; compiled table res=%d divergence=%.4f fingerprint %s)",
				info.Name, *policyPath, info.K, info.Fingerprint,
				info.CompileResolution, info.CompileDivergence, info.CompiledFingerprint)
		} else {
			log.Printf("serving %s policy from %s (k=%d, fingerprint %s)", info.Name, *policyPath, info.K, info.Fingerprint)
		}
	}
	// The encoder registers BEFORE the store attaches: recovery then finds
	// the fingerprint of the snapshot's persisted embeddings matching the
	// registered encoder and reuses them instead of re-encoding the corpus.
	if *encPath != "" {
		m, err := t2vec.LoadFile(*encPath)
		if err != nil {
			log.Fatalf("loading encoder %s: %v", *encPath, err)
		}
		info, err := eng.SetEncoder(m)
		if err != nil {
			log.Fatalf("registering encoder %s: %v", *encPath, err)
		}
		log.Printf("serving t2vec encoder from %s (dim %d, grid %d, fingerprint %s)",
			*encPath, info.Dim, info.Grid, info.Fingerprint)
	}

	handler := server.New(eng, server.Options{MaxTimeout: *timeout, EnableFailpoints: *failpoints})

	if *dataDir == "" {
		if *dataPath != "" {
			preload(eng, *dataPath)
		}
	} else {
		// Recover the persistent log in the background: the node serves
		// 503 "recovering" (health + data paths) until the replay is
		// attached, so a router can fail over instead of waiting on us.
		handler.SetReady(false)
		go func() {
			st, rs, err := storage.Open(*dataDir, storage.Options{})
			if err != nil {
				log.Fatalf("recovering %s: %v", *dataDir, err)
			}
			log.Printf("recovery: %s", rs.String())
			if err := eng.AttachStore(st); err != nil {
				log.Fatalf("attaching store: %v", err)
			}
			handler.SetRecovery(api.RecoveryInfo{
				Segments:            rs.Segments,
				Records:             rs.Records,
				SnapshotRecords:     rs.SnapshotRecords,
				Replayed:            rs.Replayed,
				TornTailTruncations: rs.TornTailTruncations,
				SnapshotsDiscarded:  rs.SnapshotsDiscarded,
				WallMS:              float64(rs.Wall.Microseconds()) / 1000,
			})
			handler.SetReady(true)
			log.Printf("ready: serving %d trajectories from %s", st.Len(), *dataDir)
			if *dataPath != "" {
				if st.Len() > 0 {
					log.Printf("skipping -data preload: %s already holds %d trajectories", *dataDir, st.Len())
				} else {
					preload(eng, *dataPath)
				}
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *dataDir != "" {
		go snapshotLoop(ctx, eng, *snapEvery)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on %s (%d shards, cache %d, index %s)", *addr, *shards, *cacheSize, *indexName)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	log.Print("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Stop admitting bulk loads and wait out the in-flight ones BEFORE the
	// HTTP drain: Shutdown abandons requests still running at its timeout,
	// and the final snapshot+fsync below must never race an abandoned
	// streaming load's batched commit.
	if err := handler.Drain(shutdownCtx); err != nil {
		log.Printf("draining loads: %v", err)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
	// After the HTTP drain, no more appends can arrive: take a final
	// snapshot and fsync the active segment so the next boot replays
	// nothing.
	if st := eng.Store(); st != nil {
		if err := st.Close(); err != nil {
			log.Printf("closing store: %v", err)
		} else {
			log.Printf("store closed: snapshot covers %d trajectories", st.Len())
		}
	}
}

// preload bulk-loads a CSV corpus into the engine (and through it the
// persistent store, when one is attached).
func preload(eng *engine.Engine, path string) {
	ts, err := traj.LoadCSV(path)
	if err != nil {
		log.Fatalf("preloading %s: %v", path, err)
	}
	if _, err := eng.Add(ts); err != nil {
		log.Fatalf("preloading %s: %v", path, err)
	}
	log.Printf("preloaded %d trajectories from %s", len(ts), path)
}

// snapshotLoop periodically snapshots the attached store's derived
// metadata so recovery replays only the tail written since the last tick.
func snapshotLoop(ctx context.Context, eng *engine.Engine, every time.Duration) {
	if every <= 0 {
		return
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			st := eng.Store()
			if st == nil {
				continue // still recovering
			}
			if err := st.Snapshot(); err != nil {
				log.Printf("snapshot: %v", err)
			}
		}
	}
}
