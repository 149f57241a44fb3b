package engine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"simsub/internal/ann"
	"simsub/internal/core"
	"simsub/internal/storage"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// Tests for placement — the two parallel phases that make records
// searchable in Add, AttachStore and SetEncoder — and for the encoder
// check that keeps a search from scoring another encoder's vectors while
// SetEncoder re-embeds.

// withProcs runs the test body at GOMAXPROCS(4), restoring it after, so an
// engine built in it places records on four workers (the default).
func withProcs(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// checkPlaced holds every shard's view of e to a serial recomputation: each
// record's metadata is core.DeriveMeta plus enc.Embed of its trajectory, bit
// for bit, the view's LSH index equals one built serially over those
// vectors, and st (when non-nil) holds the same embedding at every ID.
func checkPlaced(t *testing.T, stage string, e *Engine, enc *t2vec.Model, st *storage.Store) {
	t.Helper()
	var stored [][]float64
	if st != nil {
		fp, embs, ok := st.Embeddings()
		if want, _ := EncoderFingerprint(enc); !ok || fp != want {
			t.Fatalf("%s: store embedding set ok=%v fingerprint %x, want %x", stage, ok, fp, want)
		}
		stored = embs
	}
	n := 0
	for si, s := range e.shards {
		db, ix, viewEnc := s.view()
		if viewEnc != enc {
			t.Fatalf("%s: shard %d's view is embedded under another encoder", stage, si)
		}
		vecs := make([][]float64, db.Len())
		for li := range db.Len() {
			tr, got := db.Traj(li), db.Meta(li)
			id := li*len(e.shards) + si
			if tr.ID != id {
				t.Fatalf("%s: shard %d local %d holds ID %d, want %d", stage, si, li, tr.ID, id)
			}
			want := core.DeriveMeta(tr)
			want.Emb = enc.Embed(tr)
			if got.N != want.N || got.MBR != want.MBR || !bitsEqual(got.Emb, want.Emb) {
				t.Fatalf("%s: ID %d metadata %+v, serial recomputation %+v", stage, id, got, want)
			}
			if stored != nil && (id >= len(stored) || !bitsEqual(stored[id], want.Emb)) {
				t.Fatalf("%s: the store's embedding of ID %d is not enc.Embed of the record", stage, id)
			}
			vecs[li] = want.Emb
		}
		if !reflect.DeepEqual(ix, ann.Build(vecs, enc.Dim(), ann.Config{})) {
			t.Fatalf("%s: shard %d's LSH index differs from a serial build", stage, si)
		}
		n += db.Len()
	}
	if n != e.Len() {
		t.Fatalf("%s: shards hold %d records, engine reports %d", stage, n, e.Len())
	}
}

// placeQueries are the specs the placement tests rank: embed, and exacts
// under dtw, over a few query shapes.
func placeQueries(rng *rand.Rand) []Query {
	var qs []Query
	for _, n := range []int{5, 9, 14} {
		q := randTraj(rng, n)
		qs = append(qs,
			Query{Q: q, K: 8, Measure: "t2vec", Algorithm: "embed"},
			Query{Q: q, K: 8, Measure: "dtw", Algorithm: "exacts"})
	}
	return qs
}

// flatEngine is the reference: one shard, the corpus loaded in one Add
// under enc.
func flatEngine(t *testing.T, ts []traj.Trajectory, enc *t2vec.Model) *Engine {
	t.Helper()
	e := New(Config{Shards: 1})
	if _, err := e.SetEncoder(enc); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(ts); err != nil {
		t.Fatal(err)
	}
	return e
}

// checkRankings asserts e ranks every query exactly as ref does.
func checkRankings(t *testing.T, stage string, e, ref *Engine, qs []Query) {
	t.Helper()
	for i, q := range qs {
		want, _, err := ref.TopK(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := e.TopK(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: query %d: %v", stage, i, err)
		}
		if len(want) == 0 || !matchesEqual(got, want) {
			t.Fatalf("%s: query %d (%s/%s) ranks %+v, one shard ranks %+v", stage, i, q.Measure, q.Algorithm, got, want)
		}
	}
}

// addBatches loads ts through e.Add in batches of size b.
func addBatches(t *testing.T, e *Engine, ts []traj.Trajectory, b int) {
	t.Helper()
	for lo := 0; lo < len(ts); lo += b {
		if _, err := e.Add(ts[lo:min(lo+b, len(ts))]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlacementMatchesSerial drives placement through its three callers on
// a durable three-shard engine: batched Adds, an AttachStore whose
// checkpoint covers half the records (so half reuse a vector and half are
// encoded), and an encoder swap. After each, every view and the store's
// embedding set equal a serial recomputation, and rankings equal a
// one-shard engine's.
func TestPlacementMatchesSerial(t *testing.T) {
	withProcs(t)
	const n = 400
	rng := rand.New(rand.NewSource(50))
	ts := randSet(rng, n)
	qs := placeQueries(rng)
	enc, enc2 := t2vec.NewRandomModel(8, 1), t2vec.NewRandomModel(8, 2)
	dir := t.TempDir()

	st, _, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Shards: 3})
	if _, err := e.SetEncoder(enc); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	addBatches(t, e, ts[:n/2], 70)
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	addBatches(t, e, ts[n/2:], 70)
	checkPlaced(t, "after Add", e, enc, st)
	checkRankings(t, "after Add", e, flatEngine(t, ts, enc), qs)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Close checkpointed everything; drop that snapshot so the one taken
	// halfway is the newest
	snaps := storeFiles(t, dir, "snap-*.snap")
	if err := os.Remove(snaps[len(snaps)-1]); err != nil {
		t.Fatal(err)
	}

	st, rs, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rs.SnapshotRecords != n/2 || rs.Replayed != n/2 {
		t.Fatalf("recovery restored %d embeddings and replayed %d records, want %d each", rs.SnapshotRecords, rs.Replayed, n/2)
	}
	e = New(Config{Shards: 3})
	if _, err := e.SetEncoder(enc); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	checkPlaced(t, "after AttachStore", e, enc, st)
	checkRankings(t, "after AttachStore", e, flatEngine(t, ts, enc), qs)

	if _, err := e.SetEncoder(enc2); err != nil {
		t.Fatal(err)
	}
	checkPlaced(t, "after SetEncoder", e, enc2, st)
	checkRankings(t, "after SetEncoder", e, flatEngine(t, ts, enc2), qs)
	// a load after the swap appends behind each shard's re-embedded view
	more := randSet(rng, 50)
	addBatches(t, e, more, 50)
	checkPlaced(t, "after SetEncoder and Add", e, enc2, st)
	checkRankings(t, "after SetEncoder and Add", e, flatEngine(t, append(ts, more...), enc2), qs)
}

// TestQueriesDuringParallelAdd runs embed, ann and pss queries while a
// multi-batch Add stream places records on the engine's workers (under
// -race in CI); afterwards the engine ranks exactly as one built in a
// single Add.
func TestQueriesDuringParallelAdd(t *testing.T) {
	withProcs(t)
	rng := rand.New(rand.NewSource(51))
	ts := randSet(rng, 360)
	q := randTraj(rng, 7)
	enc := t2vec.NewRandomModel(8, 1)
	specs := []Query{
		{Q: q, K: 5, Measure: "t2vec", Algorithm: "embed"},
		{Q: q, K: 5, Measure: "dtw", Algorithm: "exacts", ANN: &ANNParams{Candidates: 30, Probes: 2}},
		{Q: q, K: 5, Measure: "frechet", Algorithm: "pss"},
	}
	e := New(Config{Shards: 3, CacheSize: 16})
	if _, err := e.SetEncoder(enc); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(ts[:40]); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := e.TopK(context.Background(), spec); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}()
	}
	addBatches(t, e, ts[40:], 40)
	close(stop)
	wg.Wait()

	fresh := New(Config{Shards: 3})
	if _, err := fresh.SetEncoder(enc); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Add(ts); err != nil {
		t.Fatal(err)
	}
	checkPlaced(t, "after the Add stream", e, enc, nil)
	checkRankings(t, "after the Add stream", e, fresh, specs)
}

// TestMidSwapSearchIgnoresOtherEncoder sets up the state SetEncoder passes
// through — the new encoder published, the shards still embedded under the
// old one, both of the same dimension — and queries it: embed must rank as
// an engine built under the new encoder does, and an ann query must fall
// back to the spatial candidates rather than probe the old index with the
// new query vector.
func TestMidSwapSearchIgnoresOtherEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ts := randSet(rng, 240)
	oldEnc, newEnc := t2vec.NewRandomModel(8, 1), t2vec.NewRandomModel(8, 2)
	e := New(Config{Shards: 3})
	if _, err := e.SetEncoder(oldEnc); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(ts); err != nil {
		t.Fatal(err)
	}
	fp, err := EncoderFingerprint(newEnc)
	if err != nil {
		t.Fatal(err)
	}
	e.addMu.Lock()
	next := *e.art.Load()
	next.enc, next.encFP = newEnc, fp
	e.swapArtifacts(next)
	e.addMu.Unlock()

	ref := New(Config{Shards: 3})
	if _, err := ref.SetEncoder(newEnc); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Add(ts); err != nil {
		t.Fatal(err)
	}
	for qi := range 3 {
		q := randTraj(rng, 6+3*qi)
		embed := Query{Q: q, K: 5, Measure: "t2vec", Algorithm: "embed"}
		checkRankings(t, fmt.Sprintf("mid-swap embed %d", qi), e, ref, []Query{embed})

		exact := Query{Q: q, K: 5, Measure: "dtw", Algorithm: "exacts"}
		want, _, err := e.TopK(context.Background(), exact)
		if err != nil {
			t.Fatal(err)
		}
		exact.ANN = &ANNParams{Candidates: 9, Probes: 2}
		got, _, err := e.TopK(context.Background(), exact)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(got, want) {
			t.Fatalf("mid-swap ann query %d ranks %+v, the spatial candidates rank %+v", qi, got, want)
		}
	}
}
