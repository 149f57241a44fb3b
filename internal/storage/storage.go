// Package storage is the durability layer under the engine: an append-only
// segment log of trajectories plus periodic snapshots that checkpoint the
// encoder embeddings derived from them, so a simsubd node survives
// restarts and recovers real-scale corpora without re-encoding them. The
// log is the only record of everything else: the scan metadata (point
// counts, MBRs) is re-derived by whoever loads the records, in the same
// pass that already reads every point.
//
// Layout of a data directory:
//
//	seg-00000000.log   append-only trajectory records (the write path)
//	seg-00000001.log   ... sealed segments, rolled at Options.SegmentBytes
//	snap-<count>.snap  embedding checkpoints, named by the record count covered
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
// A failed Append (a short write, a write error, or a failed fsync under
// SyncEveryAppend) truncates the segment back to the last acknowledged
// record before it returns, so a failure never costs a later acknowledged
// record; if that truncate fails, every later Append fails until the store
// is reopened, and Close retries the truncate. A torn tail record (crash
// mid-write) is detected by the length/CRC framing and truncated away on
// Open. Snapshots commit by atomic rename, after the log they cover is
// fsync'd; a torn or stale snapshot is discarded and the affected records
// are simply re-encoded — recovery never trusts a snapshot it cannot
// checksum.
//
// Ownership rules: record point slices may be backed by an mmap'd segment
// owned by the Store. Treat them as immutable and do not use them after
// Close. Snapshots are read into memory and decoded, so restored
// embeddings alias nothing, and only segment mappings live until Close. This
// mirrors the sync.Pool ownership rules of internal/sim: pooled DP scratch
// is per-search and returned on Release, while backing point data is
// owned by the store for its whole lifetime.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"simsub/internal/failpoint"
	"simsub/internal/traj"
)

// Fault sites of the chaos suite (internal/failpoint), all no-ops unless a
// test or operator arms them: fpAppend fails an append before any byte is
// written, fpAppendPartial tears the append's batch buffer mid-write (a
// short write: the failed Append truncates the torn bytes away before it
// returns, as it does after any failed write or fsync), fpFsync fails
// segment fsyncs, fpTruncate fails that truncate (the store then refuses
// appends until reopened), and fpSnapRename fails the snapshot's atomic
// commit rename.
const (
	fpAppend        = "storage/append"
	fpAppendPartial = "storage/append-partial"
	fpFsync         = "storage/fsync"
	fpTruncate      = "storage/truncate"
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

// RecoveryStats describes what Open did to bring the store back.
type RecoveryStats struct {
	// Segments is the number of segment files read.
	Segments int
	// Records is the total number of trajectory records recovered.
	Records int
	// SnapshotRecords is how many records had their encoder embedding
	// restored from a snapshot's checkpoint.
	SnapshotRecords int
	// Replayed is how many records the checkpoint did not cover: the rest
	// of Records, whose embedding (under an encoder) is derived afresh.
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
// embedding checkpoints. All methods are safe for concurrent use; appends
// and snapshots are internally serialized.
type Store struct {
	dir  string
	opts Options

	// snapMu serializes Snapshot end to end — image, temp file, rename,
	// prune — so overlapping calls never share the temp file. It is taken
	// before mu and never held by Append.
	snapMu sync.Mutex

	mu         sync.Mutex
	recs       []traj.Trajectory
	active     *os.File
	activeIdx  int
	activeSize int64
	unmaps     []func() error
	closed     bool
	// broken is set when a failed Append could not be rolled back; every
	// later Append fails with it.
	broken error

	// Encoder embeddings, persisted as the snapshot's checkpoint so
	// recovery under the same encoder skips re-encoding. Indexed by record
	// ID; a nil entry means "not embedded". embFP is the encoder
	// fingerprint the vectors were derived under — a fingerprint change
	// (encoder hot-swap) discards the whole set. embDirty reports a change
	// since the last checkpoint image.
	embMu    sync.Mutex
	embFP    uint64
	embs     [][]float64
	hasEmb   bool
	embDirty bool
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
// record is truncated away, and the newest valid snapshot supplies the
// embedding set it checkpointed. The snapshot is read, not mapped: it is
// garbage once decoded.
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

	s.recs = make([]traj.Trajectory, len(raws))
	for i, rr := range raws {
		s.recs[i] = traj.Trajectory{ID: int(rr.id), Points: rr.points}
	}
	// newest valid snapshot that the recovered log actually covers wins;
	// torn or over-reaching snapshots are discarded, not trusted
	if embs, fp, ok := s.loadBestSnapshot(snaps, len(raws), stats); ok {
		s.embFP, s.embs, s.hasEmb = fp, embs, true
		for _, e := range embs {
			if e != nil {
				stats.SnapshotRecords++
			}
		}
	}
	stats.Records = len(s.recs)
	stats.Replayed = stats.Records - stats.SnapshotRecords

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
	// O_APPEND, as on reopen: after rollback truncates, the next write
	// lands at the new end
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
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
// sequence), writes them to the log and returns the stored records: ts
// with their IDs set. The records are readable by Records and coverable by
// the next Snapshot. Append returns only after the bytes reached the file,
// so a process kill cannot lose an acknowledged record.
func (s *Store) Append(ts []traj.Trajectory) ([]traj.Trajectory, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("storage: store is closed")
	}
	if s.broken != nil {
		return nil, fmt.Errorf("storage: appends refused until reopened: %w", s.broken)
	}
	var buf []byte
	out := make([]traj.Trajectory, len(ts))
	for i, t := range ts {
		t.ID = len(s.recs) + i
		buf = appendTrajRecord(buf, t)
		out[i] = t
	}
	if s.activeSize >= s.opts.SegmentBytes {
		if err := s.roll(); err != nil {
			return nil, err
		}
	}
	if err := failpoint.Inject(fpAppend); err != nil {
		return nil, fmt.Errorf("storage: appending %d records: %w", len(ts), err)
	}
	if err := s.writeBatch(buf); err != nil {
		return nil, fmt.Errorf("storage: appending %d records: %w", len(ts), s.rollback(err))
	}
	s.activeSize += int64(len(buf))
	s.recs = append(s.recs, out...)
	return out, nil
}

// writeBatch writes one Append's records to the active segment, fsyncing
// them under SyncEveryAppend. On error some of buf may be in the file.
func (s *Store) writeBatch(buf []byte) error {
	if n := failpoint.Partial(fpAppendPartial, len(buf)); n < len(buf) {
		// a torn write: the injected error below is what Append reports
		_, _ = s.active.Write(buf[:n])
		return fmt.Errorf("torn write after %d/%d bytes (injected)", n, len(buf))
	}
	if _, err := s.active.Write(buf); err != nil {
		return err
	}
	if s.opts.SyncEveryAppend {
		if err := syncFile(s.active); err != nil {
			return fmt.Errorf("fsync after append: %w", err)
		}
	}
	return nil
}

// rollback undoes a failed writeBatch: it truncates the active segment back
// to its last acknowledged byte, so the next Append writes right after the
// last acknowledged record and Open never sees the failed batch. That size
// is never below the size recovered at Open, so mapped points stay valid.
// When the truncate itself fails the store stops appending until reopened:
// a later batch written after the failed one would be cut away with it as
// Open's torn tail. Close tries the truncate once more.
func (s *Store) rollback(err error) error {
	if terr := s.truncateActive(); terr != nil {
		s.broken = fmt.Errorf("truncating segment %d after a failed append: %w", s.activeIdx, terr)
		return errors.Join(err, s.broken)
	}
	return err
}

// truncateActive cuts the active segment back to its last acknowledged
// byte, through the fpTruncate fault site.
func (s *Store) truncateActive() error {
	if err := failpoint.Inject(fpTruncate); err != nil {
		return err
	}
	return s.active.Truncate(s.activeSize)
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Records returns a stable view of every stored record, in ID order (a
// record's ID is its position). The returned slice must not be mutated;
// its point data may be mmap-backed and is owned by the store until Close.
func (s *Store) Records() []traj.Trajectory {
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
	s.embDirty = true
}

// Embeddings returns the store's embedding set: the fingerprint of the
// encoder it was derived under and the vectors indexed by record ID (a nil
// entry is "not embedded"; the slice may be shorter than Len). ok reports
// whether a set exists at all (recovered from a snapshot or recorded
// since). The returned vectors must not be mutated.
func (s *Store) Embeddings() (fp uint64, embs [][]float64, ok bool) {
	s.embMu.Lock()
	defer s.embMu.Unlock()
	return s.embFP, slices.Clone(s.embs), s.hasEmb
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

// Snapshot durably checkpoints the store's embedding set, so the next
// recovery under the same encoder re-encodes nothing recorded before this
// point. It is a no-op without an embedding set, and when the set is
// unchanged since the last checkpoint. The log the checkpoint covers is
// fsync'd first, so a machine crash can never leave a checkpoint ahead of
// the log; the write itself happens outside the append lock (appends
// proceed concurrently) and commits by atomic rename, after which all but
// the two newest snapshots are pruned. Overlapping calls run one after
// another, and a call that finds the checkpoint already current returns
// nil.
func (s *Store) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.Lock()
	closed, covered := s.closed, len(s.recs)
	s.mu.Unlock()
	if closed {
		return errors.New("storage: store is closed")
	}
	img := s.snapshotImage(covered)
	if img == nil {
		return nil
	}
	err := s.Sync()
	if err != nil {
		err = fmt.Errorf("storage: syncing the log a checkpoint covers: %w", err)
	} else {
		err = s.writeSnapshot(img, covered)
	}
	if err != nil {
		// the set stays uncheckpointed: the next call tries again
		s.embMu.Lock()
		s.embDirty = true
		s.embMu.Unlock()
		return err
	}
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
		if s.broken != nil {
			// the rollback a failed Append could not finish: without it
			// the failed batch's whole records would come back on Open
			if err := s.truncateActive(); err != nil {
				errs = append(errs, fmt.Errorf("storage: retrying the rollback at close: %w", err))
			}
		}
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
