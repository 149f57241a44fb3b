package storage_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/engine"
	"simsub/internal/storage"
)

// TestReversalSnapshotStillLoads: a snapshot in the older format, whose
// meta records carry every trajectory's reversal (nrev = n), still covers
// its records. Each comes back FromSnapshot with DeriveMeta's N and MBR,
// and an engine attached to the store ranks exactly as one that never saw
// a snapshot.
func TestReversalSnapshotStillLoads(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(29))
	ts := storage.GenTrajs(rng, n)
	dir := t.TempDir()
	st, _, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.Append(ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, storage.SnapName(n))
	cur, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	old := storage.ReferenceSnapshotImage(recs, nil, true)
	if len(old) <= len(cur) {
		t.Fatalf("older-format image (%d bytes) carries no reversal points beyond the current one (%d)", len(old), len(cur))
	}
	if err := os.WriteFile(snap, old, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, rs, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rs.SnapshotsDiscarded != 0 || rs.SnapshotRecords != n {
		t.Fatalf("older-format snapshot not used: %+v", rs)
	}
	for _, r := range st2.Records() {
		want := core.DeriveMeta(r.Traj)
		if !r.FromSnapshot || r.Meta.N != want.N || r.Meta.MBR != want.MBR {
			t.Fatalf("record %d: FromSnapshot=%v meta %+v, want restored %+v", r.ID, r.FromSnapshot, r.Meta, want)
		}
	}

	recovered := engine.New(engine.Config{Shards: 3, Index: engine.ScanAll})
	if err := recovered.AttachStore(st2); err != nil {
		t.Fatal(err)
	}
	fresh := engine.New(engine.Config{Shards: 3, Index: engine.ScanAll})
	if _, err := fresh.Add(ts); err != nil {
		t.Fatal(err)
	}
	queries := storage.GenTrajs(rng, 2)
	for _, measure := range []string{"dtw", "frechet"} {
		for _, algo := range []string{"exacts", "pss"} {
			for qi, q := range queries {
				spec := api.QuerySpec{Query: api.FromTraj(q), K: 10, Measure: measure, Algorithm: algo}
				got := recovered.QueryOne(context.Background(), spec)
				want := fresh.QueryOne(context.Background(), spec)
				if got.Error != nil || want.Error != nil {
					t.Fatalf("%s/%s q%d: errors %v / %v", measure, algo, qi, got.Error, want.Error)
				}
				if got.Total != want.Total || !reflect.DeepEqual(got.Matches, want.Matches) {
					t.Errorf("%s/%s q%d: ranking over the older-format snapshot diverges\n got: %+v\nwant: %+v",
						measure, algo, qi, got.Matches, want.Matches)
				}
			}
		}
	}
}
