package storage_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"simsub/api"
	"simsub/internal/engine"
	"simsub/internal/storage"
	"simsub/internal/t2vec"
)

// The fixture testdata/parentstore was written by the previous snapshot
// format's writer: three segments holding storage.GenTrajs(seed 35, 48
// trajectories), appended through an engine with t2vec.NewRandomModel(8, 7)
// registered, and a snapshot after the first 40 records carrying a
// manifest, one meta record per trajectory and the embedding record. The
// store was abandoned without Close, as a crash leaves it.
const (
	fixtureSeed    = 35
	fixtureRecords = 48
)

// openFixture recovers a private copy of the fixture store.
func openFixture(t *testing.T) (*storage.Store, *storage.RecoveryStats, string) {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", "parentstore")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, rs, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st, rs, dir
}

// TestParentFormatSnapshotDiscarded: a snapshot in the older format fails
// the checkpoint's magic and is discarded, never migrated; every record
// still recovers from the log, and an engine attached to the store —
// without and with the encoder the old snapshot's embeddings came from —
// ranks byte-identically to a fresh engine loaded with the same corpus.
// With the encoder the corpus is re-embedded once, and the store's next
// checkpoint restores every vector.
func TestParentFormatSnapshotDiscarded(t *testing.T) {
	ts := storage.GenTrajs(rand.New(rand.NewSource(fixtureSeed)), fixtureRecords)
	queries := storage.GenTrajs(rand.New(rand.NewSource(fixtureSeed+1)), 2)
	for _, withEnc := range []bool{false, true} {
		st, rs, dir := openFixture(t)
		if rs.SnapshotsDiscarded != 1 || rs.Records != fixtureRecords || rs.Replayed != fixtureRecords || rs.SnapshotRecords != 0 {
			t.Fatalf("encoder=%v: recovery stats %+v, want the old snapshot discarded and all %d records replayed", withEnc, rs, fixtureRecords)
		}
		for i, r := range st.Records() {
			if r.ID != i || !reflect.DeepEqual(r.Points, ts[i].Points) {
				t.Fatalf("encoder=%v: record %d (id %d) differs from the corpus", withEnc, i, r.ID)
			}
		}

		var enc *t2vec.Model
		if withEnc {
			enc = t2vec.NewRandomModel(8, 7)
		}
		recovered := fixtureEngine(t, enc)
		if err := recovered.AttachStore(st); err != nil {
			t.Fatal(err)
		}
		fresh := fixtureEngine(t, enc)
		if _, err := fresh.Add(ts); err != nil {
			t.Fatal(err)
		}
		var specs []api.QuerySpec
		for _, q := range queries {
			for _, measure := range []string{"dtw", "frechet"} {
				for _, algo := range []string{"exacts", "pss"} {
					specs = append(specs, api.QuerySpec{Query: api.FromTraj(q), K: 10, Measure: measure, Algorithm: algo})
				}
			}
			if withEnc {
				specs = append(specs,
					api.QuerySpec{Query: api.FromTraj(q), K: 10, Measure: "t2vec", Algorithm: "embed"},
					api.QuerySpec{Query: api.FromTraj(q), K: 10, Measure: "dtw", Algorithm: "exacts", ANN: &api.ANNSpec{Candidates: 12, Probes: 2}})
			}
		}
		for i, spec := range specs {
			got := recovered.QueryOne(context.Background(), spec)
			want := fresh.QueryOne(context.Background(), spec)
			if got.Error != nil || want.Error != nil {
				t.Fatalf("encoder=%v spec %d: errors %v / %v", withEnc, i, got.Error, want.Error)
			}
			gb, _ := json.Marshal(got.Matches)
			wb, _ := json.Marshal(want.Matches)
			if got.Total != want.Total || string(gb) != string(wb) {
				t.Errorf("encoder=%v spec %d (%s/%s): ranking over the discarded snapshot diverges\n got: %s\nwant: %s",
					withEnc, i, spec.Measure, spec.Algorithm, gb, wb)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		// the re-embedded set was checkpointed by Close in the new format
		st2, rs2, err := storage.Open(dir, storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantRestored, wantDiscarded := 0, 1 // encoder-less: no checkpoint, the old file stays
		if withEnc {
			wantRestored, wantDiscarded = fixtureRecords, 0
		}
		if rs2.SnapshotRecords != wantRestored || rs2.SnapshotsDiscarded != wantDiscarded {
			t.Errorf("encoder=%v: reopen stats %+v, want %d restored embeddings and %d discarded", withEnc, rs2, wantRestored, wantDiscarded)
		}
		st2.Close()
	}
}

func fixtureEngine(t *testing.T, enc *t2vec.Model) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{Shards: 3, Index: engine.ScanAll})
	if enc != nil {
		if _, err := e.SetEncoder(enc); err != nil {
			t.Fatal(err)
		}
	}
	return e
}
