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
// Both file kinds share one framing (segment.go): a 16-byte file header,
// then CRC'd frames whose payloads keep point arrays 8-aligned; a segment
// frame holds one Append's records. Segments are mmap'd on recovery and
// point arrays are served as zero-copy views over the mapping (on
// little-endian hosts; others decode-copy), so the zero-allocation scan
// path runs directly over on-disk points.
//
// Recovery contract: an Append is one CRC'd frame, so a batch comes back
// whole or not at all. Append issues one write(2) per batch before
// returning, so a kill -9 loses at most batches the caller was never told
// about; fsync happens on segment roll, snapshot commit and Close
// (graceful shutdown), bounding loss on machine crash to the active
// segment's page-cache tail. A failed Append (a short write, a write
// error, or a failed fsync under SyncEveryAppend) retires its segment: the
// next Append rolls to a new one whose header holds the acknowledged count
// as its base id, and Open drops every record at or above a later
// segment's base id. Open cuts a torn frame off the active segment.
// Snapshots commit by atomic rename, after the log they cover is fsync'd;
// a torn or stale snapshot is discarded and the affected records are
// simply re-encoded — recovery never trusts a snapshot it cannot checksum.
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
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
// written, fpAppendPartial tears the append's frame mid-write (a short
// write: the failed Append retires its segment, as it does after any
// failed write or fsync), fpFsync fails segment fsyncs, and fpSnapRename
// fails the snapshot's atomic commit rename.
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
	// TornTailTruncations counts the torn or failed Appends recovery
	// discarded, in any segment. Only the active segment's torn tail is cut
	// from its file: a sealed segment is never rewritten, so its discarded
	// tail counts again on every Open.
	TornTailTruncations int
	// TornTailBytes is how many bytes the discarded tails held.
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
	// retired is set when an Append failed after its bytes may have
	// reached the active segment; the next Append rolls first.
	retired bool

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
// contents: every segment is read through mmap and replayed, a torn tail
// of the active segment is truncated away, and the newest valid snapshot
// supplies the embedding set it checkpointed. The snapshot is read, not
// mapped: it is garbage once decoded.
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

	recs, last, err := s.replay(len(segs), stats)
	if err != nil {
		s.unmapAll()
		return nil, nil, err
	}
	s.recs = recs
	stats.Segments = len(segs)
	// newest valid snapshot that the recovered log actually covers wins;
	// torn or over-reaching snapshots are discarded, not trusted
	if embs, fp, ok := s.loadBestSnapshot(snaps, len(recs), stats); ok {
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
	if idx := len(segs) - 1; idx < 0 {
		err = s.newSegment(0)
	} else {
		if last.end < last.size {
			// only pages past the new end become inaccessible, and no
			// recovered record aliases them
			err = os.Truncate(filepath.Join(dir, segName(idx)), int64(last.end))
		}
		if err == nil {
			err = s.activate(idx, int64(last.end))
		}
	}
	if err != nil {
		s.unmapAll()
		return nil, nil, err
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

// newSegment creates segment idx, headed by the acknowledged record count
// as its base id, and makes it active. The header is committed before any
// frame goes in, so a segment file never exists without a whole, durable
// header.
func (s *Store) newSegment(idx int) error {
	hdr := fileHeader(segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(s.recs)))
	if err := s.commitFile(segName(idx), hdr, ""); err != nil {
		return fmt.Errorf("storage: creating segment %d: %w", idx, err)
	}
	return s.activate(idx, int64(len(hdr)))
}

// activate opens segment idx, size bytes long, as the active segment.
func (s *Store) activate(idx int, size int64) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(idx)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: opening segment %d for appends: %w", idx, err)
	}
	s.active, s.activeIdx, s.activeSize = f, idx, size
	return nil
}

// roll seals the active segment (fsync + close) and starts the next one.
// When the seal or the new segment fails, the active segment stays and the
// next Append rolls again.
func (s *Store) roll() error {
	if err := syncFile(s.active); err != nil {
		return fmt.Errorf("storage: sealing segment %d: %w", s.activeIdx, err)
	}
	sealed := s.active
	if err := s.newSegment(s.activeIdx + 1); err != nil {
		return err
	}
	s.retired = false
	return sealed.Close()
}

// Append assigns dense IDs to ts (in order, continuing the store's record
// sequence), writes them to the log as one frame and returns the stored
// records: ts with their IDs set. The records are readable by Records and
// coverable by the next Snapshot. Append returns only after the bytes
// reached the file, so a process kill cannot lose an acknowledged record.
// A batch whose frame would exceed 4 GiB is refused.
func (s *Store) Append(ts []traj.Trajectory) ([]traj.Trajectory, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("storage: store is closed")
	}
	out := make([]traj.Trajectory, len(ts))
	size := recHeaderSize + batchHeaderSize
	for i, t := range ts {
		t.ID = len(s.recs) + i
		out[i] = t
		size += trajHeaderSize + t.Len()*pointSize
	}
	if size-recHeaderSize > math.MaxUint32 {
		return nil, fmt.Errorf("storage: appending %d records: a %d-byte frame exceeds the 4 GiB limit", len(ts), size)
	}
	if s.retired || s.activeSize >= s.opts.SegmentBytes {
		if err := s.roll(); err != nil {
			return nil, err
		}
	}
	buf := appendBatch(make([]byte, 0, size), len(s.recs), ts)
	if err := failpoint.Inject(fpAppend); err != nil {
		return nil, fmt.Errorf("storage: appending %d records: %w", len(ts), err)
	}
	if err := s.writeBatch(buf); err != nil {
		s.retired = true
		return nil, fmt.Errorf("storage: appending %d records: %w", len(ts), err)
	}
	s.activeSize += int64(len(buf))
	s.recs = append(s.recs, out...)
	return out, nil
}

// writeBatch writes one Append's frame to the active segment, fsyncing it
// under SyncEveryAppend. On error some or all of buf may be in the file.
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
		if err = s.commitFile(snapName(covered), img, fpSnapRename); err != nil {
			err = fmt.Errorf("storage: committing snapshot: %w", err)
		}
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
	if err := syncFile(s.active); err != nil {
		errs = append(errs, err)
	}
	if err := s.active.Close(); err != nil {
		errs = append(errs, err)
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

// commitFile writes buf to the store's directory as name, atomically: to
// a temporary file that is fsync'd, closed and renamed into place, so name
// only ever exists whole and durable. A non-empty renameSite is a fault
// site that fails the rename.
func (s *Store) commitFile(name string, buf []byte, renameSite string) error {
	tmp := filepath.Join(s.dir, ".tmp"+filepath.Ext(name))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = failpoint.Inject(renameSite)
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so a just-created or just-renamed file's
// directory entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: syncing dir: %w", err)
	}
	defer d.Close()
	_ = d.Sync() // best effort: some filesystems reject directory fsync
	return nil
}
