package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// TestCutBatchRecoversWhole cuts a copy of the log at every byte offset
// inside the second of two Appends: Open must recover the first batch
// alone, or both whole, never part of the second.
func TestCutBatchRecoversWhole(t *testing.T) {
	src := t.TempDir()
	rng := rand.New(rand.NewSource(47))
	s, _ := mustOpen(t, src, Options{})
	first, err := s.Append(genTrajs(rng, 2))
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(src, segName(0))
	acked, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Append(genTrajs(rng, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for cut := int(acked.Size()); cut <= len(data); cut++ {
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut at %d of %d: %v", cut, len(data), err)
		}
		want := append([]traj.Trajectory(nil), first...)
		if cut == len(data) {
			want = append(want, second...)
		}
		if n := st.Len(); n != len(want) {
			t.Fatalf("cut at %d of %d: recovered %d records, want %d: a batch comes back whole or not at all", cut, len(data), n, len(want))
		}
		equalRecords(t, st.Records(), want)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOversizedBatchRefused: a batch whose frame length would not fit its
// u32 is refused before a byte is written, not wrapped into a frame that
// recovery would read as torn.
func TestOversizedBatchRefused(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	pts := make([]geo.Point, 1<<20) // shared by every record: 24 MiB in all
	ts := make([]traj.Trajectory, math.MaxUint32/(len(pts)*pointSize)+1)
	for i := range ts {
		ts[i].Points = pts
	}
	if _, err := s.Append(ts); err == nil || !strings.Contains(err.Error(), "4 GiB") {
		t.Fatalf("append of a 4 GiB batch: %v, want it refused", err)
	}
	if recs, err := s.Append(genTrajs(rand.New(rand.NewSource(12)), 1)); err != nil || recs[0].ID != 0 {
		t.Fatalf("append after a refused batch: %v, %v", recs, err)
	}
}

// writeSegments writes segment i as a valid header with base id bases[i]
// followed by bodies[i].
func writeSegments(t *testing.T, dir string, bases []uint64, bodies [][]byte) {
	t.Helper()
	for i, base := range bases {
		seg := fileHeader(segMagic)
		binary.LittleEndian.PutUint64(seg[8:], base)
		if err := os.WriteFile(filepath.Join(dir, segName(i)), append(seg, bodies[i]...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentDamageRefused: damage the recovery rules do not account for
// is an error, not a shorter log.
func TestSegmentDamageRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	a, b, c := genTrajs(rng, 3), genTrajs(rng, 2), genTrajs(rng, 4)
	ab := appendBatch(appendBatch(nil, 0, a), 3, b)
	for _, tc := range []struct {
		name   string
		bases  []uint64
		bodies [][]byte
		want   string
	}{
		{"first segment past record 0", []uint64{2}, [][]byte{appendBatch(nil, 2, a)}, "starts at record 2"},
		{"base past the log", []uint64{0, 6}, [][]byte{ab, appendBatch(nil, 6, c)}, "starts at record 6"},
		{"base inside a batch", []uint64{0, 4}, [][]byte{ab, appendBatch(nil, 4, c)}, "inside a batch"},
		{"first id out of order", []uint64{0}, [][]byte{appendBatch(appendBatch(nil, 0, a), 4, b)}, "dense append order"},
		{"torn sealed segment", []uint64{0, 5}, [][]byte{ab[:len(ab)-8], appendBatch(nil, 5, c)}, "torn tail after record 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSegments(t, dir, tc.bases, tc.bodies)
			if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open: %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// refFrame is one whole segment frame as refFrames decodes it.
type refFrame struct {
	first uint64
	recs  [][]geo.Point
}

// refFrames decodes the leading whole frames of a segment body, written
// apart from batchAt so the fuzzer checks the reader against it.
func refFrames(body []byte) []refFrame {
	var frames []refFrame
	for len(body) >= 8 {
		n := uint64(binary.LittleEndian.Uint32(body))
		if n%8 != 0 || n < 16 || uint64(len(body)-8) < n || crc32.ChecksumIEEE(body[8:8+n]) != binary.LittleEndian.Uint32(body[4:]) {
			break
		}
		p := body[8 : 8+n]
		f := refFrame{first: binary.LittleEndian.Uint64(p)}
		count := binary.LittleEndian.Uint32(p[8:])
		p = p[16:]
		for ; count > 0 && len(p) >= 8; count-- {
			npts := uint64(binary.LittleEndian.Uint32(p))
			if uint64(len(p)-8) < npts*pointSize {
				break
			}
			pts := make([]geo.Point, npts)
			for i := range pts {
				o := 8 + i*pointSize
				pts[i] = geo.Point{
					X: math.Float64frombits(binary.LittleEndian.Uint64(p[o:])),
					Y: math.Float64frombits(binary.LittleEndian.Uint64(p[o+8:])),
					T: math.Float64frombits(binary.LittleEndian.Uint64(p[o+16:])),
				}
			}
			f.recs = append(f.recs, pts)
			p = p[8+npts*pointSize:]
		}
		if count > 0 || len(p) > 0 {
			break
		}
		frames = append(frames, f)
		body = body[8+n:]
	}
	return frames
}

// samePoints compares point slices bit for bit (fuzzed floats may be NaN).
func samePoints(a, b []geo.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) ||
			math.Float64bits(a[i].T) != math.Float64bits(b[i].T) {
			return false
		}
	}
	return true
}

// FuzzSegmentOpen writes two segments of fuzzed frames, each cut at a
// fuzzed length, behind valid headers with fuzzed base ids, and opens
// them. Open must not panic, and a store it accepts must hold whole
// batches with dense ids: some leading whole frames of the first segment,
// then every leading whole frame of the second, each frame's first id its
// position. A second Open, after the first truncated the torn tail, must
// recover the same records.
func FuzzSegmentOpen(f *testing.F) {
	rng := rand.New(rand.NewSource(48))
	a, b, c := genTrajs(rng, 3), genTrajs(rng, 2), genTrajs(rng, 4)
	ab := appendBatch(appendBatch(nil, 0, a), 3, b)
	f.Add(uint64(0), ab, uint32(len(ab)), uint64(5), appendBatch(nil, 5, c), uint32(1<<20))    // a roll
	f.Add(uint64(0), ab, uint32(len(ab)-40), uint64(3), appendBatch(nil, 3, c), uint32(1<<20)) // a torn Append, retired
	f.Add(uint64(0), ab, uint32(len(ab)), uint64(3), appendBatch(nil, 3, c), uint32(1<<20))    // a failed whole frame, dropped
	f.Add(uint64(0), ab, uint32(len(ab)), uint64(4), appendBatch(nil, 4, c), uint32(1<<20))    // a base inside a batch
	f.Add(uint64(0), ab, uint32(len(ab)), uint64(5), appendBatch(nil, 5, c), uint32(30))       // a torn active tail
	f.Fuzz(func(t *testing.T, base0 uint64, body0 []byte, cut0 uint32, base1 uint64, body1 []byte, cut1 uint32) {
		bodies := [][]byte{body0[:min(int(cut0), len(body0))], body1[:min(int(cut1), len(body1))]}
		dir := t.TempDir()
		writeSegments(t, dir, []uint64{base0, base1}, bodies)
		var recovered []traj.Trajectory
		for round := 0; round < 2; round++ {
			s, _, err := Open(dir, Options{})
			if err != nil {
				if round > 0 {
					t.Fatalf("reopen after a successful Open: %v", err)
				}
				return
			}
			got := s.Records()
			if round == 0 {
				checkWholeBatches(t, got, refFrames(bodies[0]), refFrames(bodies[1]))
				// copied out: the points alias a mapping Close releases
				for _, r := range got {
					recovered = append(recovered, traj.Trajectory{ID: r.ID, Points: append([]geo.Point(nil), r.Points...)})
				}
			} else if len(got) != len(recovered) {
				t.Fatalf("reopen recovered %d records, the first Open %d", len(got), len(recovered))
			} else {
				for i := range got {
					if !samePoints(got[i].Points, recovered[i].Points) {
						t.Fatalf("reopen: record %d differs", i)
					}
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// checkWholeBatches asserts got is some leading frames of f0 followed by
// every frame of f1, each frame's first id equal to its position.
func checkWholeBatches(t *testing.T, got []traj.Trajectory, f0, f1 []refFrame) {
	t.Helper()
	tail := 0
	for _, fr := range f1 {
		tail += len(fr.recs)
	}
	if len(got) < tail {
		t.Fatalf("recovered %d records, fewer than the last segment's %d", len(got), tail)
	}
	var frames []refFrame
	n := 0
	for _, fr := range f0 {
		if n == len(got)-tail {
			break
		}
		frames = append(frames, fr)
		n += len(fr.recs)
	}
	if n != len(got)-tail {
		t.Fatalf("recovered %d records from the first segment, not a whole number of its frames", len(got)-tail)
	}
	pos := 0
	for _, fr := range append(frames, f1...) {
		if fr.first != uint64(pos) {
			t.Fatalf("frame at record %d carries first id %d", pos, fr.first)
		}
		for _, pts := range fr.recs {
			if got[pos].ID != pos || !samePoints(got[pos].Points, pts) {
				t.Fatalf("record %d (id %d) differs from its frame", pos, got[pos].ID)
			}
			pos++
		}
	}
}
