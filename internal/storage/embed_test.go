package storage

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestEmbeddingRoundTrip: embeddings recorded against the store survive a
// snapshot + reopen, keyed to the right records and fingerprint, and
// records appended after the snapshot come back without one.
func TestEmbeddingRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	s, _ := mustOpen(t, dir, Options{})
	recs, err := s.Append(genTrajs(rng, 8))
	if err != nil {
		t.Fatal(err)
	}
	const fp = uint64(0xabcdef)
	want := make([][]float64, len(recs))
	for i, r := range recs {
		if i == 5 {
			continue // leave one record unembedded
		}
		emb := []float64{float64(r.ID), float64(r.ID) * 2, 0.5}
		want[i] = emb
		s.SetEmbedding(r.ID, fp, emb)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// records past the snapshot have no persisted embedding
	if _, err := s.Append(genTrajs(rng, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rs := mustOpen(t, dir, Options{})
	defer s2.Close()
	gotFP, got, ok := s2.Embeddings()
	if !ok || gotFP != fp {
		t.Fatalf("Embeddings fingerprint = (%#x, %v), want (%#x, true)", gotFP, ok, fp)
	}
	if got := s2.EmbeddingCount(); got != 7 {
		t.Fatalf("EmbeddingCount = %d, want 7", got)
	}
	for i := 0; i < 8; i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d: emb %v, want %v", i, got[i], want[i])
		}
	}
	for i := 8; i < 10; i++ {
		if len(got[i]) != 0 {
			t.Fatalf("record %d appended after snapshot should carry no embedding, got %v", i, got[i])
		}
	}
	if rs.SnapshotRecords != 7 || rs.Replayed != 3 {
		t.Fatalf("expected 7 restored embeddings and 3 records left to replay, got %+v", rs)
	}
}

// TestEmbeddingFingerprintSwapDiscards: a vector recorded under a new
// fingerprint discards the old set, and the next snapshot persists only
// the new encoder's vectors.
func TestEmbeddingFingerprintSwapDiscards(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2))
	s, _ := mustOpen(t, dir, Options{})
	recs, err := s.Append(genTrajs(rng, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		s.SetEmbedding(r.ID, 1, []float64{1, 1})
	}
	s.SetEmbedding(recs[0].ID, 2, []float64{9, 9})
	if got := s.EmbeddingCount(); got != 1 {
		t.Fatalf("EmbeddingCount after fingerprint swap = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := mustOpen(t, dir, Options{})
	defer s2.Close()
	fp, got, ok := s2.Embeddings()
	if !ok || fp != 2 {
		t.Fatalf("Embeddings fingerprint = (%d, %v), want (2, true)", fp, ok)
	}
	if !reflect.DeepEqual(got[0], []float64{9, 9}) {
		t.Fatalf("record 0 emb = %v", got[0])
	}
	for i := 1; i < 4; i++ {
		if len(got[i]) != 0 {
			t.Fatalf("record %d should have been discarded by the swap, got %v", i, got[i])
		}
	}
}

// TestSnapshotWithoutEmbeddingsUnchanged: an encoder-less store recovers
// with no embedding set.
func TestSnapshotWithoutEmbeddingsUnchanged(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	s, _ := mustOpen(t, dir, Options{})
	if _, err := s.Append(genTrajs(rng, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := mustOpen(t, dir, Options{})
	defer s2.Close()
	if _, embs, ok := s2.Embeddings(); ok || len(embs) != 0 {
		t.Fatalf("encoder-less store recovered an embedding set of %d vectors", len(embs))
	}
}

// TestSnapshotWithoutEmbeddingsWritesNothing: a snapshot is an embedding
// checkpoint, so a store without an embedding set writes no snapshot file
// — neither on an explicit Snapshot nor on Close — and recovery replays
// every record from the log alone.
func TestSnapshotWithoutEmbeddingsWritesNothing(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if _, err := s.Append(genTrajs(rand.New(rand.NewSource(4)), 6)); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, snaps, err := s.listFiles(); err != nil || len(snaps) != 0 {
		t.Fatalf("encoder-less store left snapshots %v (err %v)", snaps, err)
	}
	s2, rs := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rs.Records != 6 || rs.Replayed != 6 || rs.SnapshotRecords != 0 || rs.SnapshotsDiscarded != 0 {
		t.Fatalf("recovery stats %+v, want all 6 records replayed from the log", rs)
	}
}
