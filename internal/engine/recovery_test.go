package engine

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"simsub/api"
	"simsub/internal/storage"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// buildCrashedStore writes ts into a fresh store under dir the way a live
// node would — batched loads through an engine, enc registered when
// non-nil, with a snapshot midway (a checkpoint of the embeddings so far;
// without an encoder there is none to write) — and then abandons the store
// WITHOUT Close, as a kill -9 would: no final snapshot, no fsync of the
// active segment. The store must not be used afterwards.
func buildCrashedStore(t *testing.T, dir string, ts []traj.Trajectory, enc *t2vec.Model) {
	t.Helper()
	st, _, err := storage.Open(dir, storage.Options{SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	e := recoveryEngine(t, enc)
	if err := e.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	const batch = 100
	for i := 0; i < len(ts); i += batch {
		end := min(i+batch, len(ts))
		if _, err := e.Add(ts[i:end]); err != nil {
			t.Fatal(err)
		}
		if end == 6*batch { // a snapshot partway through the corpus
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// no Close: the crash leaves whatever the page cache holds
}

// recoveryEngine is the engine the recovery tests compare, with enc
// registered when non-nil.
func recoveryEngine(t *testing.T, enc *t2vec.Model) *Engine {
	t.Helper()
	e := New(Config{Shards: 3, Index: ScanAll})
	if enc != nil {
		if _, err := e.SetEncoder(enc); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// embeddingsOf returns every stored trajectory's embedding, by global ID.
func embeddingsOf(e *Engine) [][]float64 {
	g := e.cur.Load()
	out := make([][]float64, g.n)
	for si, s := range g.shards {
		for li := range s.db.Len() {
			out[li*len(g.shards)+si] = s.db.Meta(li).Emb
		}
	}
	return out
}

func storeFiles(t *testing.T, dir, pattern string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// TestEngineAttachStoreRoundTrip drives the durable write path the way
// simsubd does: attach an empty store, load through Engine.Add (which
// appends to the log before making trajectories searchable), shut down
// cleanly, then recover into a fresh engine and check the corpus and a
// ranking survived intact.
func TestEngineAttachStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ts := randSet(rng, 200)
	q := randTraj(rng, 7)
	spec := api.QuerySpec{Query: api.FromTraj(q), K: 10}
	dir := t.TempDir()

	st, rs, err := storage.Open(dir, storage.Options{SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Records != 0 {
		t.Fatalf("fresh dir recovered %d records", rs.Records)
	}
	e := New(Config{Shards: 3, Index: ScanAll})
	if err := e.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	ids, err := e.Add(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("engine assigned id %d at position %d; store ids must stay dense", id, i)
		}
	}
	want := e.QueryOne(context.Background(), spec)
	if want.Error != nil {
		t.Fatal(want.Error)
	}
	if err := st.Close(); err != nil { // graceful shutdown: final snapshot + fsync
		t.Fatal(err)
	}

	st2, rs2, err := storage.Open(dir, storage.Options{SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rs2.Records != len(ts) {
		t.Fatalf("recovered %d records, want %d", rs2.Records, len(ts))
	}
	if rs2.Replayed != len(ts) || rs2.SnapshotRecords != 0 {
		t.Errorf("encoder-less store: recovery %+v, want every record replayed from the log (no checkpoint to restore)", rs2)
	}
	e2 := New(Config{Shards: 3, Index: ScanAll})
	if err := e2.AttachStore(st2); err != nil {
		t.Fatal(err)
	}
	if e2.Len() != len(ts) {
		t.Fatalf("recovered engine holds %d trajectories, want %d", e2.Len(), len(ts))
	}
	got := e2.QueryOne(context.Background(), spec)
	if got.Error != nil {
		t.Fatal(got.Error)
	}
	if got.Total != want.Total || !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Fatalf("recovered ranking diverges:\n got: %+v\nwant: %+v", got.Matches, want.Matches)
	}

	// attaching to a non-empty engine or double-attaching must be rejected
	if err := e2.AttachStore(st2); err == nil {
		t.Error("double AttachStore accepted")
	}
}

// TestCrashRecoveryRankingsByteIdentical is the durability property test:
// whatever prefix of the corpus survives a crash — torn tail record, torn
// snapshot, missing snapshot, or an intact snapshot with a log tail past
// it — the recovered engine must serve rankings byte-identical to a
// never-crashed in-memory engine holding that same prefix, across
// dtw/frechet × exacts/pss. The snapshot scenarios run with an encoder
// registered: there the recovered embeddings must also be bit-equal to
// the never-crashed engine's, and an ann query must rank identically.
func TestCrashRecoveryRankingsByteIdentical(t *testing.T) {
	const nTraj = 1000
	rng := rand.New(rand.NewSource(70))
	ts := randSet(rng, nTraj)
	queries := []traj.Trajectory{randTraj(rng, 6), randTraj(rng, 9)}

	// corrupt mutates the crashed store's files; it returns a short note
	// checked against the recovery stats.
	type scenario struct {
		name    string
		enc     bool
		corrupt func(t *testing.T, dir string, rng *rand.Rand)
		check   func(t *testing.T, rs *storage.RecoveryStats, n int)
	}
	scenarios := []scenario{
		{
			name: "torn-tail-record",
			corrupt: func(t *testing.T, dir string, rng *rand.Rand) {
				segs := storeFiles(t, dir, "seg-*.log")
				last := segs[len(segs)-1]
				info, err := os.Stat(last)
				if err != nil {
					t.Fatal(err)
				}
				// cut the active segment at an arbitrary byte offset
				off := rng.Int63n(info.Size())
				if err := os.Truncate(last, off); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, rs *storage.RecoveryStats, n int) {
				if n == nTraj && rs.TornTailTruncations == 0 {
					t.Error("cut segment recovered the full corpus with no truncation recorded")
				}
			},
		},
		{
			name: "torn-snapshot",
			enc:  true,
			corrupt: func(t *testing.T, dir string, rng *rand.Rand) {
				snaps := storeFiles(t, dir, "snap-*.snap")
				if len(snaps) == 0 {
					t.Fatal("crashed store wrote no snapshot")
				}
				last := snaps[len(snaps)-1]
				info, err := os.Stat(last)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(last, info.Size()/2); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, rs *storage.RecoveryStats, n int) {
				if rs.SnapshotsDiscarded == 0 {
					t.Error("torn snapshot not discarded")
				}
				if n != nTraj {
					t.Errorf("log was intact but only %d of %d records recovered", n, nTraj)
				}
			},
		},
		{
			name: "missing-snapshot",
			enc:  true,
			corrupt: func(t *testing.T, dir string, rng *rand.Rand) {
				for _, snap := range storeFiles(t, dir, "snap-*.snap") {
					if err := os.Remove(snap); err != nil {
						t.Fatal(err)
					}
				}
			},
			check: func(t *testing.T, rs *storage.RecoveryStats, n int) {
				if rs.Replayed != nTraj {
					t.Errorf("replayed %d records, want all %d", rs.Replayed, nTraj)
				}
				if n != nTraj {
					t.Errorf("log was intact but only %d of %d records recovered", n, nTraj)
				}
			},
		},
		{
			name:    "crash-after-snapshot",
			enc:     true,
			corrupt: func(t *testing.T, dir string, rng *rand.Rand) {},
			check: func(t *testing.T, rs *storage.RecoveryStats, n int) {
				if rs.SnapshotRecords != 600 || rs.Replayed != nTraj-600 || n != nTraj {
					t.Errorf("recovery %+v of %d records, want 600 embeddings restored and the tail replayed", rs, n)
				}
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var enc *t2vec.Model
			if sc.enc {
				enc = t2vec.NewRandomModel(8, 7)
			}
			dir := t.TempDir()
			buildCrashedStore(t, dir, ts, enc)
			sc.corrupt(t, dir, rng)

			st, rs, err := storage.Open(dir, storage.Options{SegmentBytes: 64 << 10})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer st.Close()
			n := st.Len()
			sc.check(t, rs, n)
			if n == 0 {
				t.Fatal("recovery kept nothing")
			}

			recovered := recoveryEngine(t, enc)
			if err := recovered.AttachStore(st); err != nil {
				t.Fatal(err)
			}
			fresh := recoveryEngine(t, enc)
			if _, err := fresh.Add(ts[:n]); err != nil {
				t.Fatal(err)
			}
			if enc != nil {
				got, want := embeddingsOf(recovered), embeddingsOf(fresh)
				for id := range want {
					if len(got[id]) != enc.Dim() || !bitsEqual(got[id], want[id]) {
						t.Fatalf("record %d: recovered embedding %v, never-crashed %v", id, got[id], want[id])
					}
				}
				annSpec := api.QuerySpec{
					Query: api.FromTraj(queries[0]), K: 10, Measure: "dtw", Algorithm: "exacts",
					ANN: &api.ANNSpec{Candidates: 60, Probes: 2},
				}
				got1, want1 := recovered.QueryOne(context.Background(), annSpec), fresh.QueryOne(context.Background(), annSpec)
				if got1.Error != nil || want1.Error != nil || !reflect.DeepEqual(got1.Matches, want1.Matches) {
					t.Errorf("ann ranking diverges from never-crashed engine (errors %v / %v)\n got: %+v\nwant: %+v",
						got1.Error, want1.Error, got1.Matches, want1.Matches)
				}
			}

			for _, measure := range []string{"dtw", "frechet"} {
				for _, algo := range []string{"exacts", "pss"} {
					for qi, q := range queries {
						spec := api.QuerySpec{
							Query: api.FromTraj(q), K: 10,
							Measure: measure, Algorithm: algo,
						}
						got := recovered.QueryOne(context.Background(), spec)
						want := fresh.QueryOne(context.Background(), spec)
						if got.Error != nil || want.Error != nil {
							t.Fatalf("%s/%s q%d: errors %v / %v", measure, algo, qi, got.Error, want.Error)
						}
						if got.Total != want.Total || !reflect.DeepEqual(got.Matches, want.Matches) {
							t.Errorf("%s/%s q%d: recovered ranking diverges from never-crashed engine\n got: %+v\nwant: %+v",
								measure, algo, qi, got.Matches, want.Matches)
						}
					}
				}
			}
		})
	}
}

// bitsEqual reports whether a and b hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
