package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"simsub/internal/failpoint"
	"simsub/internal/geo"
	"simsub/internal/traj"
)

func genTrajs(rng *rand.Rand, n int) []traj.Trajectory {
	ts := make([]traj.Trajectory, n)
	for i := range ts {
		npts := 2 + rng.Intn(30)
		pts := make([]geo.Point, npts)
		x, y := rng.Float64()*100, rng.Float64()*100
		for j := range pts {
			x += rng.NormFloat64()
			y += rng.NormFloat64()
			pts[j] = geo.Point{X: x, Y: y, T: float64(j)}
		}
		ts[i] = traj.Trajectory{Points: pts}
	}
	return ts
}

func mustOpen(t *testing.T, dir string, opts Options) (*Store, *RecoveryStats) {
	t.Helper()
	s, rs, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rs
}

// equalRecords asserts ids and points match between stores.
func equalRecords(t *testing.T, got, want []traj.Trajectory) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID {
			t.Fatalf("record %d: id %d, want %d", i, g.ID, w.ID)
		}
		if !reflect.DeepEqual(g.Points, w.Points) {
			t.Fatalf("record %d: points differ", i)
		}
	}
}

// testFP is the encoder fingerprint the tests record embeddings under.
const testFP = uint64(0xfeed)

// embedAll records a deterministic embedding for every record in recs, so
// the store has an embedding set to checkpoint.
func embedAll(s *Store, recs []traj.Trajectory) {
	for _, r := range recs {
		s.SetEmbedding(r.ID, testFP, []float64{float64(r.ID), -1, 0.25})
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	ts := genTrajs(rng, 200)

	s1, rs := mustOpen(t, dir, Options{SegmentBytes: 8 << 10}) // force several rolls
	if rs.Records != 0 {
		t.Fatalf("fresh dir recovered %d records", rs.Records)
	}
	var want []traj.Trajectory
	for i := 0; i < len(ts); i += 7 {
		end := min(i+7, len(ts))
		recs, err := s1.Append(ts[i:end])
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		embedAll(s1, recs)
		want = append(want, recs...)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rs2 := mustOpen(t, dir, Options{SegmentBytes: 8 << 10})
	defer s2.Close()
	if rs2.Records != len(ts) || rs2.Segments < 2 {
		t.Fatalf("recovery stats: %+v", rs2)
	}
	// Close wrote a final checkpoint: every embedding should be restored
	if rs2.SnapshotRecords != len(ts) || rs2.Replayed != 0 {
		t.Fatalf("expected full snapshot coverage, got %+v", rs2)
	}
	equalRecords(t, s2.Records(), want)

	// appends must continue the dense ID sequence after recovery
	more, err := s2.Append(genTrajs(rng, 3))
	if err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if more[0].ID != len(ts) || more[2].ID != len(ts)+2 {
		t.Fatalf("post-recovery ids: %d..%d, want %d..%d", more[0].ID, more[2].ID, len(ts), len(ts)+2)
	}
}

func TestRecoveryWithoutSnapshotReplays(t *testing.T) {
	dir := t.TempDir()
	s1, _ := mustOpen(t, dir, Options{})
	ts := genTrajs(rand.New(rand.NewSource(2)), 50)
	if _, err := s1.Append(ts); err != nil {
		t.Fatal(err)
	}
	want := s1.Records()
	// simulate kill -9: no Close, no snapshot
	if err := s1.Sync(); err != nil {
		t.Fatal(err)
	}

	s2, rs := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rs.Replayed != 50 || rs.SnapshotRecords != 0 {
		t.Fatalf("expected full replay, got %+v", rs)
	}
	equalRecords(t, s2.Records(), want)
}

// TestTornTailTruncated: a torn last Append is dropped whole; the batches
// before it survive.
func TestTornTailTruncated(t *testing.T) {
	for _, tc := range []struct{ batches, cut int }{ // cut: bytes to chop off the tail
		{1, 1}, {1, 3}, {1, 9}, {1, 17}, {1, 23},
		{2, 1}, {2, 3}, {2, 9}, {2, 17}, {2, 23},
	} {
		cut := tc.cut
		dir := t.TempDir()
		s1, _ := mustOpen(t, dir, Options{})
		ts := genTrajs(rand.New(rand.NewSource(3)), 20)
		torn := ts
		if tc.batches == 2 {
			if _, err := s1.Append(ts[:12]); err != nil {
				t.Fatal(err)
			}
			torn = ts[12:]
		}
		if _, err := s1.Append(torn); err != nil {
			t.Fatal(err)
		}
		full := s1.Records()
		s1.Sync()
		survivors := full[:len(full)-len(torn)]

		seg := filepath.Join(dir, segName(0))
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}

		s2, rs := mustOpen(t, dir, Options{})
		if rs.TornTailTruncations != 1 {
			t.Fatalf("cut=%d: expected a torn-tail truncation, got %+v", cut, rs)
		}
		got := s2.Records()
		if len(got) != len(survivors) {
			t.Fatalf("%d batches, cut=%d: recovered %d records, want %d", tc.batches, cut, len(got), len(survivors))
		}
		equalRecords(t, got, survivors)
		// the store must accept appends after truncation
		if _, err := s2.Append(genTrajs(rand.New(rand.NewSource(4)), 2)); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		s2.Close()

		s3, rs3 := mustOpen(t, dir, Options{})
		if rs3.TornTailTruncations != 0 || rs3.Records != len(survivors)+2 {
			t.Fatalf("cut=%d: second recovery: %+v", cut, rs3)
		}
		s3.Close()
	}
}

func TestTornSnapshotDiscarded(t *testing.T) {
	dir := t.TempDir()
	s1, _ := mustOpen(t, dir, Options{})
	ts := genTrajs(rand.New(rand.NewSource(5)), 30)
	recs, err := s1.Append(ts)
	if err != nil {
		t.Fatal(err)
	}
	embedAll(s1, recs)
	want := s1.Records()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(dir, snapName(30))
	fi, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(snap, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	s2, rs := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rs.SnapshotsDiscarded != 1 || rs.Replayed != 30 {
		t.Fatalf("expected discarded snapshot + full replay, got %+v", rs)
	}
	if _, _, ok := s2.Embeddings(); ok {
		t.Fatal("torn snapshot restored an embedding set")
	}
	equalRecords(t, s2.Records(), want)
}

func TestSnapshotAheadOfLogDiscarded(t *testing.T) {
	dir := t.TempDir()
	s1, _ := mustOpen(t, dir, Options{})
	ts := genTrajs(rand.New(rand.NewSource(6)), 10)
	for _, batch := range [][]traj.Trajectory{ts[:9], ts[9:]} {
		recs, err := s1.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		embedAll(s1, recs)
	}
	if err := s1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	full := s1.Records()

	// chop the last batch, one record, off the log: the snapshot now
	// covers more records than the log holds and must not be trusted
	seg := filepath.Join(dir, segName(0))
	fi, _ := os.Stat(seg)
	last := full[len(full)-1]
	recBytes := int64(recHeaderSize + batchHeaderSize + trajHeaderSize + last.Len()*pointSize)
	if err := os.Truncate(seg, fi.Size()-recBytes); err != nil {
		t.Fatal(err)
	}

	s2, rs := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rs.SnapshotsDiscarded != 1 {
		t.Fatalf("expected over-reaching snapshot discarded, got %+v", rs)
	}
	if rs.Records != 9 || rs.SnapshotRecords != 0 {
		t.Fatalf("recovered %+v, want 9 records and no restored embedding", rs)
	}
	equalRecords(t, s2.Records(), full[:9])
}

func TestSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		recs, err := s.Append(genTrajs(rng, 4))
		if err != nil {
			t.Fatal(err)
		}
		embedAll(s, recs)
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, snaps, err := s.listFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[1] != 20 {
		t.Fatalf("snapshot pruning left %v, want the two newest ending at 20", snaps)
	}
}

// TestSnapshotNoopWhenCurrent: a Snapshot that finds the embedding set
// unchanged since the last checkpoint writes nothing — not even a
// same-named replacement — and a changed set is checkpointed again.
func TestSnapshotNoopWhenCurrent(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	defer s.Close()
	recs, err := s.Append(genTrajs(rand.New(rand.NewSource(8)), 5))
	if err != nil {
		t.Fatal(err)
	}
	embedAll(s, recs)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, snapName(5))
	before, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil { // nothing changed: must be a no-op
		t.Fatal(err)
	}
	if after, err := os.Stat(snap); err != nil || !os.SameFile(before, after) {
		t.Fatalf("no-op snapshot replaced %s (err %v)", snap, err)
	}
	s.SetEmbedding(0, testFP, []float64{7, 7, 7})
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(snap); err != nil || os.SameFile(before, after) {
		t.Fatalf("changed embedding set not checkpointed again (err %v)", err)
	}
}

func TestEmptyTrajectoryRecord(t *testing.T) {
	dir := t.TempDir()
	s1, _ := mustOpen(t, dir, Options{})
	ts := []traj.Trajectory{
		{Points: []geo.Point{{X: 1, Y: 2, T: 0}}},
		{Points: nil}, // degenerate but must round-trip
		{Points: []geo.Point{{X: 3, Y: 4, T: 0}, {X: 5, Y: 6, T: 1}}},
	}
	if _, err := s1.Append(ts); err != nil {
		t.Fatal(err)
	}
	want := s1.Records()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := mustOpen(t, dir, Options{})
	defer s2.Close()
	equalRecords(t, s2.Records(), want)
}

// referenceSnapshotImage assembles a snapshot image independently of the
// writer — the checkpoint payload built field by field from embs (nil
// entries skipped), framed once behind the file header.
func referenceSnapshotImage(fp uint64, embs [][]float64) []byte {
	dim, count := 0, 0
	for _, e := range embs {
		if e != nil {
			dim = len(e)
			count++
		}
	}
	payload := []byte(embMagic)
	payload = binary.LittleEndian.AppendUint64(payload, fp)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(dim))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(count))
	for id, e := range embs {
		if e == nil {
			continue
		}
		payload = binary.LittleEndian.AppendUint64(payload, uint64(id))
		for _, v := range e {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
		}
	}
	return framedImage(payload)
}

// framedImage is a snapshot image around an arbitrary checkpoint payload.
func framedImage(payload []byte) []byte {
	img := fileHeader(snapMagic)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(payload)))
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(payload))
	return append(img, payload...)
}

// TestSnapshotImageUnchangedAndPresized holds the pre-sized snapshot writer
// to the format: its image equals, byte for byte, the reference encoding,
// for a sparse and a full embedding set, and its buffer is exactly the
// file's size, never grown.
func TestSnapshotImageUnchangedAndPresized(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	rng := rand.New(rand.NewSource(24))
	recs, err := s.Append(genTrajs(rng, 300))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, len(recs))
	for _, embedded := range []int{200, 300} {
		for _, r := range recs[:embedded] {
			want[r.ID] = []float64{float64(r.ID), -1, 0.25}
			s.SetEmbedding(r.ID, testFP, want[r.ID])
		}
		got := s.snapshotImage(len(recs))
		if !bytes.Equal(got, referenceSnapshotImage(testFP, want)) {
			t.Fatalf("%d embedded: snapshot image differs from the reference encoding", embedded)
		}
		if cap(got) != len(got) {
			t.Fatalf("%d embedded: image of %d bytes sits in a buffer of %d", embedded, len(got), cap(got))
		}
	}
}

// failedBatchThenMore stores 5 records, makes the next 5-record Append fail
// under the armed fault site, appends 5 more and reopens: exactly the 10
// acknowledged records must come back, in dense ID order, recovery must
// drop only the failed batch's bytes, and the store must keep appending
// after the reopen.
func failedBatchThenMore(t *testing.T, opts Options, site, spec string) {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	s1, _ := mustOpen(t, dir, opts)
	want, err := s1.Append(genTrajs(rng, 5))
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(0))
	acked, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable(site, spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { failpoint.Disable(site) })
	if _, err := s1.Append(genTrajs(rng, 5)); err == nil {
		t.Fatalf("%s=%s: append succeeded", site, spec)
	}
	failpoint.Disable(site)
	more, err := s1.Append(genTrajs(rng, 5))
	if err != nil {
		t.Fatalf("append after a failed one: %v", err)
	}
	want = append(want, more...)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	failed, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}

	s2, rs := mustOpen(t, dir, opts)
	defer s2.Close()
	if dropped := failed.Size() - acked.Size(); dropped == 0 || rs.TornTailTruncations != 1 || rs.TornTailBytes != dropped {
		t.Fatalf("reopen dropped %d bytes in %d tails, want only the failed batch's %d", rs.TornTailBytes, rs.TornTailTruncations, dropped)
	}
	equalRecords(t, s2.Records(), want)
	if recs, err := s2.Append(genTrajs(rng, 1)); err != nil || recs[0].ID != len(want) {
		t.Fatalf("append after reopen: %v, %v", recs, err)
	}
}

func TestTornAppendRolledBack(t *testing.T) {
	failedBatchThenMore(t, Options{}, fpAppendPartial, "1*partial(0.5)")
}

func TestFailedFsyncAppendRolledBack(t *testing.T) {
	failedBatchThenMore(t, Options{SyncEveryAppend: true}, fpFsync, "1*error(disk gone)")
}
