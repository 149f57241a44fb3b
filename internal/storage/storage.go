// Package storage is the durability layer under the engine: an append-only
// segment log of trajectories plus periodic snapshots of their derived scan
// metadata (core.TrajMeta: point counts and MBRs, plus encoder embeddings
// when one is registered), so a simsubd node survives restarts and
// recovers real-scale corpora without re-deriving per-point state.
//
// Layout of a data directory:
//
//	seg-00000000.log   append-only trajectory records (the write path)
//	seg-00000001.log   ... sealed segments, rolled at Options.SegmentBytes
//	snap-<count>.snap  metadata snapshots, named by the record count covered
//
// Both file kinds share one record framing: a fixed 16-byte file header
// (magic, format version), then length-prefixed records
// [payload_len u32][crc32 u32][payload], every payload a multiple of 8
// bytes so point arrays stay 8-aligned. Sealed files are mmap'd on
// recovery and point arrays are served as zero-copy views over the
// mapping (on little-endian hosts; others decode-copy), so the PR 3
// zero-allocation scan path runs directly over on-disk points.
//
// Recovery contract: a record is visible iff its bytes fully reached the
// file. Append issues one write(2) per batch before returning, so a
// kill -9 loses at most records the caller was never told about; fsync
// happens on segment roll, snapshot commit and Close (graceful shutdown),
// bounding loss on machine crash to the active segment's page-cache tail.
// A torn tail record (crash mid-write) is detected by the length/CRC
// framing and truncated away on Open. Snapshots commit by atomic rename;
// a torn or stale snapshot is discarded and the affected records simply
// re-derive their metadata — recovery never trusts a snapshot it cannot
// checksum.
//
// Ownership rules: record point slices may be backed by an mmap'd segment
// owned by the Store. Treat them as immutable and do not use them after
// Close. Snapshots are read into memory and decoded, so restored metadata
// aliases nothing, and only segment mappings live until Close. This
// mirrors the sync.Pool ownership rules of internal/sim: pooled DP scratch
// is per-search and returned on Release, while backing point data is
// owned by the store for its whole lifetime.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"simsub/internal/core"
	"simsub/internal/failpoint"
	"simsub/internal/traj"
)

// Fault sites of the chaos suite (internal/failpoint), all no-ops unless a
// test or operator arms them: fpAppend fails an append before any byte is
// written, fpAppendPartial tears the append's batch buffer mid-write
// (exactly the torn tail a crash leaves — the store must be reopened to
// recover, like after a real crash), fpFsync fails segment fsyncs, and
// fpSnapRename fails the snapshot's atomic commit rename.
const (
	fpAppend        = "storage/append"
	fpAppendPartial = "storage/append-partial"
	fpFsync         = "storage/fsync"
	fpSnapRename    = "storage/snapshot-rename"
)

// syncFile fsyncs f through the fpFsync fault site.
func syncFile(f *os.File) error {
	if err := failpoint.Inject(fpFsync); err != nil {
		return err
	}
	return f.Sync()
}

// Options tunes a Store. The zero value selects the documented defaults.
type Options struct {
	// SegmentBytes is the roll threshold of the active segment (default
	// 64 MiB). A segment is fsync'd when sealed.
	SegmentBytes int64
	// SyncEveryAppend fsyncs after every Append (default false). The
	// default already survives process kill; this additionally bounds
	// machine-crash loss at a large throughput cost.
	SyncEveryAppend bool
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
}

// Record is one stored trajectory with its derived scan metadata.
type Record struct {
	// ID is the trajectory's global ID, dense in append order (ID == the
	// record's position in the store).
	ID int
	// Traj is the trajectory; points may be a zero-copy view over an
	// mmap'd segment.
	Traj traj.Trajectory
	// Meta is the derived scan metadata: N and the MBR, plus the embedding
	// when a snapshot persisted one. After recovery it comes from the
	// newest valid snapshot when one covers the record (FromSnapshot),
	// otherwise it is re-derived during replay. It never aliases a
	// mapping.
	Meta core.TrajMeta
	// FromSnapshot reports whether Meta was restored rather than derived.
	FromSnapshot bool
}

// RecoveryStats describes what Open did to bring the store back.
type RecoveryStats struct {
	// Segments is the number of segment files read.
	Segments int
	// Records is the total number of trajectory records recovered.
	Records int
	// SnapshotRecords is how many records had their metadata restored from
	// a snapshot (no re-derivation).
	SnapshotRecords int
	// Replayed is how many log-tail records had their metadata re-derived.
	Replayed int
	// TornTailTruncations counts partial tail records truncated away
	// (0 or 1: only the last segment can carry a torn tail).
	TornTailTruncations int
	// TornTailBytes is how many bytes the truncation discarded.
	TornTailBytes int64
	// SnapshotsDiscarded counts snapshot files that failed validation
	// (torn, corrupt, or ahead of the recovered log) and were ignored.
	SnapshotsDiscarded int
	// Wall is the total recovery wall-clock time.
	Wall time.Duration
}

// String renders the stats as one boot-log line.
func (rs RecoveryStats) String() string {
	return fmt.Sprintf("%d records from %d segments in %v (%d from snapshot, %d replayed, %d torn-tail truncations/%dB, %d snapshots discarded)",
		rs.Records, rs.Segments, rs.Wall.Round(time.Millisecond),
		rs.SnapshotRecords, rs.Replayed, rs.TornTailTruncations, rs.TornTailBytes, rs.SnapshotsDiscarded)
}

// Store is a persistent trajectory store: an append-only segment log plus
// metadata snapshots. All methods are safe for concurrent use; appends and
// snapshots are internally serialized.
type Store struct {
	dir  string
	opts Options

	// snapMu serializes Snapshot end to end — image, temp file, rename,
	// prune — so overlapping calls never share the temp file. It is taken
	// before mu and never held by Append.
	snapMu sync.Mutex

	mu          sync.Mutex
	recs        []Record
	active      *os.File
	activeIdx   int
	activeSize  int64
	snapApplied int // records covered by the newest durable snapshot
	unmaps      []func() error
	closed      bool

	// Encoder embeddings, persisted as the snapshot's trailing embedding
	// record so recovery under the same encoder skips re-encoding. Indexed
	// by record ID; a nil entry means "not embedded". embFP is the encoder
	// fingerprint the vectors were derived under — a fingerprint change
	// (encoder hot-swap) discards the whole set.
	embMu  sync.Mutex
	embFP  uint64
	embs   [][]float64
	hasEmb bool
}

const (
	segPrefix  = "seg-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func segName(i int) string  { return fmt.Sprintf("%s%08d%s", segPrefix, i, segSuffix) }
func snapName(n int) string { return fmt.Sprintf("%s%016d%s", snapPrefix, n, snapSuffix) }

// Open opens (creating if needed) the store rooted at dir and recovers its
// contents: every segment is read (sealed ones through mmap), a torn tail
// record is truncated away, and the newest valid snapshot supplies derived
// metadata for the records it covers — only the log tail past the snapshot
// re-derives MBRs. The snapshot is read, not mapped: it is garbage once
// decoded.
func Open(dir string, opts Options) (*Store, *RecoveryStats, error) {
	opts.fill()
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("storage: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, opts: opts}
	stats := &RecoveryStats{}

	segs, snaps, err := s.listFiles()
	if err != nil {
		return nil, nil, err
	}

	// read every segment; only the last may carry a torn tail
	var raws []rawRecord
	for i, idx := range segs {
		last := i == len(segs)-1
		rs, err := s.readSegment(idx, last, stats)
		if err != nil {
			s.unmapAll()
			return nil, nil, err
		}
		raws = append(raws, rs...)
		stats.Segments++
	}
	// dense-ID invariant: record ID == position, in every writer's output
	for i, rr := range raws {
		if rr.id != int64(i) {
			s.unmapAll()
			return nil, nil, fmt.Errorf("storage: %s: record %d carries id %d, want dense append order", dir, i, rr.id)
		}
	}

	// newest valid snapshot that the recovered log actually covers wins;
	// torn or over-reaching snapshots are discarded, not trusted
	metas, embFP, hasEmb := s.loadBestSnapshot(snaps, len(raws), stats)

	s.recs = make([]Record, len(raws))
	for i, rr := range raws {
		t := traj.Trajectory{ID: int(rr.id), Points: rr.points}
		rec := Record{ID: int(rr.id), Traj: t}
		if i < len(metas) && metas[i].N == t.Len() {
			rec.Meta = metas[i]
			rec.FromSnapshot = true
			stats.SnapshotRecords++
		} else {
			rec.Meta = core.DeriveMeta(t)
			stats.Replayed++
		}
		s.recs[i] = rec
	}
	s.snapApplied = len(metas)
	if hasEmb {
		// carry the recovered embedding set forward so the next snapshot
		// re-persists it even if the engine never re-registers an encoder
		s.embFP, s.hasEmb = embFP, true
		s.embs = make([][]float64, len(s.recs))
		for i := range s.recs {
			if s.recs[i].FromSnapshot {
				s.embs[i] = s.recs[i].Meta.Emb
			}
		}
	}
	stats.Records = len(s.recs)

	// (re)open the active segment for appending
	if len(segs) == 0 {
		if err := s.newSegment(0); err != nil {
			s.unmapAll()
			return nil, nil, err
		}
	} else {
		idx := segs[len(segs)-1]
		f, err := os.OpenFile(filepath.Join(dir, segName(idx)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			s.unmapAll()
			return nil, nil, fmt.Errorf("storage: reopening active segment: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			s.unmapAll()
			return nil, nil, err
		}
		s.active, s.activeIdx, s.activeSize = f, idx, fi.Size()
	}
	stats.Wall = time.Since(start)
	return s, stats, nil
}

// listFiles enumerates segment indices (ascending, must be dense from 0)
// and snapshot record counts (ascending).
func (s *Store) listFiles() (segs, snaps []int, err error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: reading %s: %w", s.dir, err)
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			n, perr := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
			if perr != nil {
				return nil, nil, fmt.Errorf("storage: unparseable segment name %q", name)
			}
			segs = append(segs, n)
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			n, perr := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix))
			if perr != nil {
				return nil, nil, fmt.Errorf("storage: unparseable snapshot name %q", name)
			}
			snaps = append(snaps, n)
		}
	}
	sort.Ints(segs)
	sort.Ints(snaps)
	for i, n := range segs {
		if n != i {
			return nil, nil, fmt.Errorf("storage: segment files not dense: found %s at position %d", segName(n), i)
		}
	}
	return segs, snaps, nil
}

// newSegment creates and headers segment idx and makes it active.
func (s *Store) newSegment(idx int) error {
	path := filepath.Join(s.dir, segName(idx))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("storage: creating segment: %w", err)
	}
	hdr := fileHeader(segMagic)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("storage: writing segment header: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.active, s.activeIdx, s.activeSize = f, idx, int64(len(hdr))
	return nil
}

// roll seals the active segment (fsync + close) and starts the next one.
func (s *Store) roll() error {
	if err := syncFile(s.active); err != nil {
		return fmt.Errorf("storage: sealing segment %d: %w", s.activeIdx, err)
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("storage: sealing segment %d: %w", s.activeIdx, err)
	}
	return s.newSegment(s.activeIdx + 1)
}

// Append assigns dense IDs to ts (in order, continuing the store's record
// sequence), writes them to the log and returns the stored records with
// their freshly derived metadata. The records are readable by Records and
// coverable by the next Snapshot. Append returns only after the bytes
// reached the file, so a process kill cannot lose an acknowledged record.
func (s *Store) Append(ts []traj.Trajectory) ([]Record, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("storage: store is closed")
	}
	var buf []byte
	out := make([]Record, len(ts))
	for i, t := range ts {
		t.ID = len(s.recs) + i
		buf = appendTrajRecord(buf, t)
		out[i] = Record{ID: t.ID, Traj: t, Meta: core.DeriveMeta(t)}
	}
	if s.activeSize >= s.opts.SegmentBytes {
		if err := s.roll(); err != nil {
			return nil, err
		}
	}
	if err := failpoint.Inject(fpAppend); err != nil {
		return nil, fmt.Errorf("storage: appending %d records: %w", len(ts), err)
	}
	if n := failpoint.Partial(fpAppendPartial, len(buf)); n < len(buf) {
		// a torn write, exactly as a crash mid-append leaves it: some bytes
		// of the batch reach the file, the caller is never acked, and the
		// tail is truncated away on the next Open
		_, _ = s.active.Write(buf[:n])
		return nil, fmt.Errorf("storage: appending %d records: torn write after %d/%d bytes (injected)", len(ts), n, len(buf))
	}
	if _, err := s.active.Write(buf); err != nil {
		return nil, fmt.Errorf("storage: appending %d records: %w", len(ts), err)
	}
	s.activeSize += int64(len(buf))
	if s.opts.SyncEveryAppend {
		if err := syncFile(s.active); err != nil {
			return nil, fmt.Errorf("storage: fsync after append: %w", err)
		}
	}
	s.recs = append(s.recs, out...)
	return out, nil
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Records returns a stable view of every stored record, in ID order. The
// returned slice must not be mutated; its point data may be mmap-backed
// and is owned by the store until Close.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs[:len(s.recs):len(s.recs)]
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// SetEmbedding records the embedding of record id under the encoder
// fingerprint fp. A fingerprint different from the current set's discards
// every previously recorded vector first (they were derived by another
// encoder and must not be persisted alongside the new ones). The vectors
// become durable with the next Snapshot.
func (s *Store) SetEmbedding(id int, fp uint64, emb []float64) {
	if id < 0 {
		return
	}
	s.embMu.Lock()
	defer s.embMu.Unlock()
	if !s.hasEmb || s.embFP != fp {
		s.embs = nil
		s.embFP = fp
		s.hasEmb = true
	}
	for len(s.embs) <= id {
		s.embs = append(s.embs, nil)
	}
	s.embs[id] = emb
}

// EmbeddingInfo returns the fingerprint of the encoder the store's
// embedding set was derived under, and whether such a set exists at all
// (recovered from a snapshot or recorded since).
func (s *Store) EmbeddingInfo() (fp uint64, ok bool) {
	s.embMu.Lock()
	defer s.embMu.Unlock()
	return s.embFP, s.hasEmb
}

// EmbeddingCount returns how many records currently carry an embedding.
func (s *Store) EmbeddingCount() int {
	s.embMu.Lock()
	defer s.embMu.Unlock()
	n := 0
	for _, e := range s.embs {
		if len(e) > 0 {
			n++
		}
	}
	return n
}

// Sync fsyncs the active segment.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("storage: store is closed")
	}
	return syncFile(s.active)
}

// Snapshot durably persists the derived metadata of every current record,
// so the next recovery replays nothing before this point. It is a no-op
// when no record was appended since the last snapshot. The write happens
// outside the append lock (appends proceed concurrently) and commits by
// atomic rename; all but the two newest snapshots are then pruned.
// Overlapping calls run one after another, and a call that finds the
// snapshot already current returns nil.
func (s *Store) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("storage: store is closed")
	}
	recs := s.recs[:len(s.recs):len(s.recs)]
	already := s.snapApplied
	s.mu.Unlock()
	if len(recs) == already {
		return nil
	}
	if err := s.writeSnapshot(recs); err != nil {
		return err
	}
	s.mu.Lock()
	if len(recs) > s.snapApplied {
		s.snapApplied = len(recs)
	}
	s.mu.Unlock()
	return s.pruneSnapshots()
}

// pruneSnapshots removes all but the two newest snapshot files (the newest
// plus one fallback in case the newest is torn by a concurrent crash).
func (s *Store) pruneSnapshots() error {
	_, snaps, err := s.listFiles()
	if err != nil {
		return err
	}
	for i := 0; i+2 < len(snaps); i++ {
		if err := os.Remove(filepath.Join(s.dir, snapName(snaps[i]))); err != nil {
			return fmt.Errorf("storage: pruning snapshot: %w", err)
		}
	}
	return nil
}

// SnapshotCovered returns how many records the newest durable snapshot
// covers.
func (s *Store) SnapshotCovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapApplied
}

// Close flushes a final snapshot, fsyncs and closes the active segment and
// releases every mapping. The store is unusable afterwards; so is any
// mmap-backed point slice it handed out.
func (s *Store) Close() error {
	snapErr := s.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return snapErr
	}
	s.closed = true
	var errs []error
	if snapErr != nil {
		errs = append(errs, snapErr)
	}
	if s.active != nil {
		if err := syncFile(s.active); err != nil {
			errs = append(errs, err)
		}
		if err := s.active.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	errs = append(errs, s.unmapLocked())
	return errors.Join(errs...)
}

func (s *Store) unmapAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.unmapLocked()
}

func (s *Store) unmapLocked() error {
	var errs []error
	for _, fn := range s.unmaps {
		errs = append(errs, fn())
	}
	s.unmaps = nil
	return errors.Join(errs...)
}

// syncDir fsyncs a directory so a just-created or just-renamed file's
// directory entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: syncing dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// some filesystems reject directory fsync; treat as best-effort
		return nil
	}
	return nil
}
