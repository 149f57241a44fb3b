package storage

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestHostileSnapshotHeadersRejected: a snapshot whose size claims are
// absurd must be discarded before anything is sized by them — never panic
// Open. A file named as covering 2^50 records is ahead of any log; an
// entry whose u64 id has the top bit set would index out of range as an
// int; a CRC-valid checkpoint whose count*(8+dim*8) wraps to its real
// length used to be walked past its end.
func TestHostileSnapshotHeadersRejected(t *testing.T) {
	const n = 12
	// dim = 2^32-1 makes an entry 2^35 bytes; 2^29 of them wrap to 0
	wrapped := append([]byte(embMagic), make([]byte, embHeaderSize-len(embMagic))...)
	binary.LittleEndian.PutUint32(wrapped[16:], 1<<32-1)
	binary.LittleEndian.PutUint32(wrapped[20:], 1<<29)
	valid := referenceSnapshotImage(testFP, [][]float64{{1, 2}, {3, 4}})
	topBit := append([]byte(nil), valid[fileHeaderSize+recHeaderSize:]...)
	binary.LittleEndian.PutUint64(topBit[embHeaderSize:], 1<<63)
	for _, tc := range []struct {
		name    string
		covered int
		image   []byte
	}{
		{"applied 2^50", 1 << 50, valid},
		{"entry id top bit", n, framedImage(topBit)},
		{"wrapped embedding size", n, framedImage(wrapped)},
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
			if err := os.WriteFile(filepath.Join(dir, snapName(tc.covered)), tc.image, 0o644); err != nil {
				t.Fatal(err)
			}
			s2, rs := mustOpen(t, dir, Options{})
			defer s2.Close()
			if rs.SnapshotsDiscarded != 1 || rs.SnapshotRecords != 0 || rs.Replayed != n {
				t.Fatalf("recovery stats %+v, want the snapshot discarded and every record back", rs)
			}
			if _, _, ok := s2.Embeddings(); ok {
				t.Fatal("hostile snapshot restored an embedding set")
			}
			equalRecords(t, s2.Records(), recs)
		})
	}
}

// FuzzSnapshotDecode: decodeSnapshot is the reader of a file on a trust
// boundary. Whatever the bytes, it returns an error or an embedding set
// exactly logRecords long whose vectors sit below covered <= logRecords
// and share one length, and it never panics.
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
	img := s.snapshotImage(len(recs))
	parent, err := os.ReadFile(filepath.Join("testdata", "parentstore", snapName(40)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img, uint16(len(recs)), uint16(len(recs)))
	f.Add(parent, uint16(40), uint16(48))                         // the older meta-record format
	f.Add(img[:len(img)/2], uint16(len(recs)), uint16(len(recs))) // torn
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, covered, logRecords uint16) {
		embs, _, err := decodeSnapshot(data, int(covered), int(logRecords))
		if err != nil {
			return
		}
		if covered > logRecords || len(embs) != int(logRecords) {
			t.Fatalf("decoded %d vectors for a snapshot covering %d of a %d-record log", len(embs), covered, logRecords)
		}
		dim := -1
		for id, e := range embs {
			if e == nil {
				continue
			}
			if id >= int(covered) || (dim >= 0 && len(e) != dim) {
				t.Fatalf("vector for record %d of length %d (covered %d, dim %d)", id, len(e), covered, dim)
			}
			dim = len(e)
		}
	})
}

// TestConcurrentSnapshots: overlapping Snapshot calls — a periodic
// snapshot tick meeting the one Close takes — must each succeed and leave
// a store that recovers everything, with appends and embeddings recorded
// beside them.
func TestConcurrentSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	rng := rand.New(rand.NewSource(33))
	const rounds, batch = 100, 50
	for r := 0; r < rounds; r++ {
		recs, err := s.Append(genTrajs(rng, batch))
		if err != nil {
			t.Fatal(err)
		}
		embedAll(s, recs)
		more := genTrajs(rng, 2)
		errs := make(chan error, 3)
		for range 2 {
			go func() { errs <- s.Snapshot() }()
		}
		go func() {
			recs, err := s.Append(more)
			if err == nil {
				embedAll(s, recs)
			}
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
