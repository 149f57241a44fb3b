package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// withManifest returns img with its manifest's applied count replaced and
// the frame's checksum recomputed, so the lie survives the CRC check.
func withManifest(img []byte, applied uint64) []byte {
	out := append([]byte(nil), img...)
	payload := out[fileHeaderSize+recHeaderSize : fileHeaderSize+recHeaderSize+manifestPayloadSize]
	binary.LittleEndian.PutUint64(payload, applied)
	binary.LittleEndian.PutUint32(out[fileHeaderSize+4:], crc32.ChecksumIEEE(payload))
	return out
}

// TestHostileSnapshotHeadersRejected: a CRC-valid snapshot whose u64 and
// u32 size fields are absurd must be discarded (manifest) or read as "no
// embeddings" (embedding record) before anything is sized by them — never
// panic Open. A manifest covering 2^50 records, or one with the top bit
// set, used to reach make() unchecked; an embedding record whose
// count*(8+dim*8) wraps to its real length used to be walked past its end.
func TestHostileSnapshotHeadersRejected(t *testing.T) {
	const n = 12
	// dim = 2^32-1 makes an entry 2^35 bytes; 2^29 of them wrap to 0
	wrapped := append([]byte(embMagic), make([]byte, embHeaderSize-len(embMagic))...)
	binary.LittleEndian.PutUint32(wrapped[16:], 1<<32-1)
	binary.LittleEndian.PutUint32(wrapped[20:], 1<<29)
	for _, tc := range []struct {
		name      string
		image     func(recs []Record) []byte
		discarded int
	}{
		{"applied 2^50", func(recs []Record) []byte { return withManifest(referenceSnapshotImage(recs, nil, false), 1<<50) }, 1},
		{"applied top bit", func(recs []Record) []byte { return withManifest(referenceSnapshotImage(recs, nil, false), 1<<63|n) }, 1},
		{"wrapped embedding size", func(recs []Record) []byte { return referenceSnapshotImage(recs, wrapped, false) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, _ := mustOpen(t, dir, Options{})
			recs, err := s1.Append(genTrajs(rand.New(rand.NewSource(9)), n))
			if err != nil {
				t.Fatal(err)
			}
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, snapName(n)), tc.image(recs), 0o644); err != nil {
				t.Fatal(err)
			}
			s2, rs := mustOpen(t, dir, Options{})
			defer s2.Close()
			if rs.SnapshotsDiscarded != tc.discarded || rs.Replayed+rs.SnapshotRecords != n || rs.Replayed != n*tc.discarded {
				t.Fatalf("recovery stats %+v, want %d discarded and every record back", rs, tc.discarded)
			}
			if _, ok := s2.EmbeddingInfo(); ok {
				t.Fatal("hostile snapshot restored an embedding set")
			}
			equalRecords(t, s2.Records(), recs)
		})
	}
}

// FuzzSnapshotDecode: decodeSnapshot is the reader of a file on a trust
// boundary. Whatever the bytes, it returns an error or exactly the
// manifest's applied metas with applied <= logRecords, and never panics.
func FuzzSnapshotDecode(f *testing.F) {
	s, _, err := Open(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	recs, err := s.Append(genTrajs(rand.New(rand.NewSource(10)), 4))
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range recs[:3] {
		s.SetEmbedding(r.ID, 7, []float64{float64(r.ID), 0.5})
	}
	img := s.snapshotImage(recs)
	f.Add(img, uint16(len(recs)))
	f.Add(referenceSnapshotImage(recs, nil, true), uint16(len(recs))) // reversal-carrying format
	f.Add(img[:len(img)/2], uint16(len(recs)))                        // torn
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, logRecords uint16) {
		metas, _, _, err := decodeSnapshot(data, int(logRecords))
		if err != nil {
			return
		}
		applied := binary.LittleEndian.Uint64(data[fileHeaderSize+recHeaderSize:])
		if uint64(len(metas)) != applied || len(metas) > int(logRecords) {
			t.Fatalf("decoded %d metas for manifest applied=%d, log of %d", len(metas), applied, logRecords)
		}
	})
}

// TestConcurrentSnapshots: overlapping Snapshot calls — a periodic
// snapshot tick meeting the one Close takes — must each succeed and leave
// a store that recovers everything, with appends running beside them.
func TestConcurrentSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	rng := rand.New(rand.NewSource(33))
	const rounds, batch = 100, 50
	for r := 0; r < rounds; r++ {
		if _, err := s.Append(genTrajs(rng, batch)); err != nil {
			t.Fatal(err)
		}
		more := genTrajs(rng, 2)
		errs := make(chan error, 3)
		for range 2 {
			go func() { errs <- s.Snapshot() }()
		}
		go func() {
			_, err := s.Append(more)
			errs <- err
		}()
		for range 3 {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
	}
	want := s.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rs := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rs.Records != want || rs.SnapshotRecords != want || rs.SnapshotsDiscarded != 0 {
		t.Fatalf("recovered %+v, want all %d records from an intact snapshot", rs, want)
	}
}
