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

// equalRecords asserts ids, points and metadata match between stores.
func equalRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID {
			t.Fatalf("record %d: id %d, want %d", i, g.ID, w.ID)
		}
		if !reflect.DeepEqual(g.Traj.Points, w.Traj.Points) {
			t.Fatalf("record %d: points differ", i)
		}
		if g.Meta.MBR != w.Meta.MBR || g.Meta.N != w.Meta.N {
			t.Fatalf("record %d: meta differs: %+v vs %+v", i, g.Meta, w.Meta)
		}
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
	var want []Record
	for i := 0; i < len(ts); i += 7 {
		end := min(i+7, len(ts))
		recs, err := s1.Append(ts[i:end])
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
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
	// Close wrote a final snapshot: nothing should have been re-derived
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

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 3, 9, 17, 23} { // bytes to chop off the tail
		dir := t.TempDir()
		s1, _ := mustOpen(t, dir, Options{})
		ts := genTrajs(rand.New(rand.NewSource(3)), 20)
		if _, err := s1.Append(ts); err != nil {
			t.Fatal(err)
		}
		full := s1.Records()
		s1.Sync()

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
		if len(got) != len(full)-1 {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(got), len(full)-1)
		}
		equalRecords(t, got, full[:len(full)-1])
		// the store must accept appends after truncation
		if _, err := s2.Append(genTrajs(rand.New(rand.NewSource(4)), 2)); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		s2.Close()

		s3, rs3 := mustOpen(t, dir, Options{})
		if rs3.TornTailTruncations != 0 || rs3.Records != len(full)+1 {
			t.Fatalf("cut=%d: second recovery: %+v", cut, rs3)
		}
		s3.Close()
	}
}

func TestTornSnapshotDiscarded(t *testing.T) {
	dir := t.TempDir()
	s1, _ := mustOpen(t, dir, Options{})
	ts := genTrajs(rand.New(rand.NewSource(5)), 30)
	if _, err := s1.Append(ts); err != nil {
		t.Fatal(err)
	}
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
	equalRecords(t, s2.Records(), want)
}

func TestSnapshotAheadOfLogDiscarded(t *testing.T) {
	dir := t.TempDir()
	s1, _ := mustOpen(t, dir, Options{})
	ts := genTrajs(rand.New(rand.NewSource(6)), 10)
	if _, err := s1.Append(ts); err != nil {
		t.Fatal(err)
	}
	if err := s1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	full := s1.Records()
	s1.Sync()

	// chop the last record off the log: the snapshot now covers more
	// records than the log holds and must not be trusted
	seg := filepath.Join(dir, segName(0))
	fi, _ := os.Stat(seg)
	last := full[len(full)-1]
	recBytes := int64(recHeaderSize + trajHeaderSize + last.Traj.Len()*pointSize)
	if err := os.Truncate(seg, fi.Size()-recBytes); err != nil {
		t.Fatal(err)
	}

	s2, rs := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rs.SnapshotsDiscarded != 1 {
		t.Fatalf("expected over-reaching snapshot discarded, got %+v", rs)
	}
	if rs.Records != 9 {
		t.Fatalf("recovered %d records, want 9", rs.Records)
	}
	equalRecords(t, s2.Records(), full[:9])
}

func TestSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		if _, err := s.Append(genTrajs(rng, 4)); err != nil {
			t.Fatal(err)
		}
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
	if len(snaps) > 2 {
		t.Fatalf("snapshot pruning left %d files: %v", len(snaps), snaps)
	}
}

func TestSnapshotNoopWhenCurrent(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if _, err := s.Append(genTrajs(rand.New(rand.NewSource(8)), 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := s.SnapshotCovered(); got != 5 {
		t.Fatalf("SnapshotCovered = %d, want 5", got)
	}
	_, snaps, _ := s.listFiles()
	if err := s.Snapshot(); err != nil { // no new records: must be a no-op
		t.Fatal(err)
	}
	_, snaps2, _ := s.listFiles()
	if len(snaps2) != len(snaps) {
		t.Fatalf("no-op snapshot wrote a file: %v -> %v", snaps, snaps2)
	}
	s.Close()
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

// referenceSnapshotImage assembles a snapshot image the way the writer
// used to — each record framed from a payload of its own, appended to a
// growing buffer — with emb as the trailing embedding record when non-nil.
// withRev writes the older format, which stored every trajectory's
// reversal in its meta record (nrev = n, then the points last to first).
func referenceSnapshotImage(recs []Record, emb []byte, withRev bool) []byte {
	framed := func(buf, payload []byte) []byte {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
		return append(buf, payload...)
	}
	img := fileHeader(snapMagic)
	var payload []byte
	payload = binary.LittleEndian.AppendUint64(payload, uint64(len(recs)))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(len(recs)))
	img = framed(img, payload)
	for _, r := range recs {
		var rev []geo.Point
		if withRev {
			rev = r.Traj.Reverse().Points
		}
		payload = payload[:0]
		payload = binary.LittleEndian.AppendUint64(payload, uint64(int64(r.ID)))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(r.Meta.N))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rev)))
		for _, f := range []float64{r.Meta.MBR.MinX, r.Meta.MBR.MinY, r.Meta.MBR.MaxX, r.Meta.MBR.MaxY} {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(f))
		}
		for _, p := range rev {
			for _, f := range []float64{p.X, p.Y, p.T} {
				payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(f))
			}
		}
		img = framed(img, payload)
	}
	if emb != nil {
		img = framed(img, emb)
	}
	return img
}

// TestSnapshotImageUnchangedAndPresized holds the pre-sized snapshot writer
// to the format: its image equals, byte for byte, the reference encoding
// (nrev = 0), with and without an embedding record, and its buffer is
// exactly the file's size, never grown.
func TestSnapshotImageUnchangedAndPresized(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	rng := rand.New(rand.NewSource(24))
	recs, err := s.Append(genTrajs(rng, 300))
	if err != nil {
		t.Fatal(err)
	}
	for _, withEmb := range []bool{false, true} {
		var emb []byte
		if withEmb {
			for _, r := range recs[:200] {
				s.SetEmbedding(r.ID, 0xfeed, []float64{float64(r.ID), -1, 0.25})
			}
			emb = s.embPayload(len(recs))
		}
		want := referenceSnapshotImage(recs, emb, false)
		got := s.snapshotImage(recs)
		if !bytes.Equal(got, want) {
			t.Fatalf("embeddings=%v: snapshot image differs from the reference encoding (%d vs %d bytes)", withEmb, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("embeddings=%v: image of %d bytes sits in a buffer of %d", withEmb, len(got), cap(got))
		}
	}
}
