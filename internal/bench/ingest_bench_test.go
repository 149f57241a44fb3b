package bench

import (
	"bytes"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"

	"simsub/internal/engine"
	"simsub/internal/server"
	"simsub/internal/storage"
	"simsub/internal/traj"
)

// Ingest and recovery benchmarks for the persistent segment store: how
// fast a corpus streams through POST /v2/load/stream into a durable store,
// and how long a cold boot takes to replay it. Results land in
// BENCH_ingest.json (override with BENCH_INGEST_OUT); the corpus size
// defaults to 100k trajectories and follows BENCH_INGEST_N:
//
//	go test ./internal/bench -run '^$' -bench 'BenchmarkIngest|BenchmarkRecover' -benchtime 1x

type ingestBenchResult struct {
	Records       int     `json:"records"`
	Points        int     `json:"points"`
	Seconds       float64 `json:"seconds"`
	RecordsPerSec float64 `json:"records_per_sec"`
	Replayed      int     `json:"replayed,omitempty"`
	Snapshotted   int     `json:"snapshotted,omitempty"`
}

var (
	ingestMu      sync.Mutex
	ingestResults = map[string]ingestBenchResult{}
)

func ingestN() int {
	if s := os.Getenv("BENCH_INGEST_N"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 100_000
}

const ingestPts = 10

// ingestCorpus memoizes the NDJSON encoding so BenchmarkIngest iterations
// measure ingest, not corpus generation.
var ingestCorpus = sync.OnceValue(func() []byte {
	ts := servingData(ingestN(), ingestPts, 11)
	var buf bytes.Buffer
	if err := traj.WriteNDJSON(&buf, ts); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// BenchmarkIngest streams the NDJSON corpus through the full HTTP ingest
// path — JSON decode, validation, durable append, shard insert — into an
// engine backed by a fresh persistent store.
func BenchmarkIngest(b *testing.B) {
	corpus := ingestCorpus()
	n := ingestN()
	b.SetBytes(int64(len(corpus)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, _, err := storage.Open(b.TempDir(), storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.New(engine.Config{Shards: 4})
		if err := eng.AttachStore(st); err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(server.New(eng, server.Options{}))
		b.StartTimer()

		resp, err := srv.Client().Post(srv.URL+"/v2/load/stream", "application/x-ndjson", bytes.NewReader(corpus))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("stream load status %d", resp.StatusCode)
		}

		b.StopTimer()
		srv.Close()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	secs := b.Elapsed().Seconds() / float64(b.N)
	rps := float64(n) / secs
	b.ReportMetric(rps, "records/s")
	ingestMu.Lock()
	ingestResults["stream_load"] = ingestBenchResult{
		Records: n, Points: n * ingestPts, Seconds: secs, RecordsPerSec: rps,
	}
	ingestMu.Unlock()
}

// BenchmarkRecover measures the cold-boot path at the same scale: open the
// segment log and attach the corpus to a fresh engine, which derives every
// record's point count and MBR from the log. The store is written the way
// a crashed encoder-less node leaves it — a snapshot asked for halfway
// (a no-op: without embeddings there is nothing to checkpoint), so every
// record replays from the log.
func BenchmarkRecover(b *testing.B) {
	n := ingestN()
	ts := servingData(n, ingestPts, 11)
	dir := b.TempDir()
	st, _, err := storage.Open(dir, storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Append(ts[:n/2]); err != nil {
		b.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Append(ts[n/2:]); err != nil {
		b.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		b.Fatal(err)
	}
	// abandoned without Close, as a crash leaves it

	var last *storage.RecoveryStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, rs, err := storage.Open(dir, storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.New(engine.Config{Shards: 4})
		if err := eng.AttachStore(st); err != nil {
			b.Fatal(err)
		}
		if eng.Len() != n {
			b.Fatalf("recovered %d trajectories, want %d", eng.Len(), n)
		}
		last = rs
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	secs := b.Elapsed().Seconds() / float64(b.N)
	rps := float64(n) / secs
	b.ReportMetric(rps, "records/s")
	ingestMu.Lock()
	ingestResults["recover"] = ingestBenchResult{
		Records: n, Points: n * ingestPts, Seconds: secs, RecordsPerSec: rps,
		Replayed: last.Replayed, Snapshotted: last.SnapshotRecords,
	}
	ingestMu.Unlock()
}
