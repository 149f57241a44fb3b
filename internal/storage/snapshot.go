package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"simsub/internal/core"
	"simsub/internal/failpoint"
	"simsub/internal/geo"
	"simsub/internal/traj"
)

// Snapshot file layout ("SSNP" header, then the shared record framing):
//
//	manifest record payload := applied:u64 generation:u64
//	meta record payload     := id:i64 n:u32 nrev:u32 mbr:4*f64 revpoint[nrev]
//	emb record payload      := tag:8B fp:u64 dim:u32 count:u32 entry[count]
//	entry                   := id:u64 val[dim]:f64
//
// The manifest comes first and states how many records the snapshot covers
// (applied) — exactly that many meta records follow, in ID order. The
// generation counter increases with every snapshot so a fallback file is
// recognizably older. Reversal points start 48 bytes into the payload
// (8-aligned), so recovery serves TrajMeta.Rev zero-copy from the snapshot
// mapping just as trajectory points are served from segment mappings.
//
// The embedding record is optional and trails the meta records: readers
// that predate it stop after `applied` meta records and never see it, so
// old and new snapshots interoperate both ways. It persists the encoder
// embeddings the engine derived for the covered records (keyed by the
// encoder fingerprint), so recovery under the same encoder skips
// re-encoding the whole corpus. Entries are sparse (id-tagged): a record
// the engine had not embedded yet is simply absent.
const (
	manifestPayloadSize = 16
	metaHeaderSize      = 48
	embHeaderSize       = 24
	embMagic            = "SEMB0001"
)

// snapshotImage encodes the snapshot file covering recs. The file's size is
// known before its first byte — every record's length follows from its
// point count — so the image is built in one buffer of exactly that size
// instead of one grown by doubling, which at tens of thousands of records
// was most of the time a snapshot took.
func (s *Store) snapshotImage(recs []Record) []byte {
	gen := uint64(len(recs)) // record count is monotone, so it doubles as generation
	emb := s.embPayload(len(recs))
	size := fileHeaderSize + recHeaderSize + manifestPayloadSize
	for _, r := range recs {
		size += recHeaderSize + metaHeaderSize + r.Meta.Rev.Len()*pointSize
	}
	if emb != nil {
		size += recHeaderSize + len(emb)
	}
	buf := append(make([]byte, 0, size), fileHeader(snapMagic)...)
	buf, at := beginFramed(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(recs)))
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	endFramed(buf, at)
	for _, r := range recs {
		buf, at = beginFramed(buf)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(r.ID)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Meta.N))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Meta.Rev.Len()))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Meta.MBR.MinX))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Meta.MBR.MinY))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Meta.MBR.MaxX))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Meta.MBR.MaxY))
		buf = appendPoints(buf, r.Meta.Rev.Points)
		endFramed(buf, at)
	}
	if emb != nil {
		buf, at = beginFramed(buf)
		buf = append(buf, emb...)
		endFramed(buf, at)
	}
	return buf
}

// writeSnapshot persists metas for recs to a new snapshot file, atomically
// (temp file + fsync + rename).
func (s *Store) writeSnapshot(recs []Record) error {
	buf := s.snapshotImage(recs)
	tmp := filepath.Join(s.dir, ".tmp"+snapSuffix)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: creating snapshot temp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	final := filepath.Join(s.dir, snapName(len(recs)))
	if err := failpoint.Inject(fpSnapRename); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: committing snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: committing snapshot: %w", err)
	}
	return syncDir(s.dir)
}

// embPayload builds the embedding record's payload from the store's
// current embedding set, restricted to record IDs below covered. It is nil
// when no embedding was ever recorded, which keeps snapshots of
// encoder-less deployments byte-for-byte in the pre-embedding format.
func (s *Store) embPayload(covered int) []byte {
	s.embMu.Lock()
	defer s.embMu.Unlock()
	if !s.hasEmb {
		return nil
	}
	dim := 0
	count := 0
	for id, e := range s.embs {
		if id >= covered {
			break
		}
		if len(e) == 0 {
			continue
		}
		if dim == 0 {
			dim = len(e)
		}
		if len(e) == dim {
			count++
		}
	}
	payload := make([]byte, 0, embHeaderSize+count*(8+dim*8))
	payload = append(payload, embMagic...)
	payload = binary.LittleEndian.AppendUint64(payload, s.embFP)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(dim))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(count))
	for id, e := range s.embs {
		if id >= covered {
			break
		}
		if len(e) != dim || dim == 0 {
			continue
		}
		payload = binary.LittleEndian.AppendUint64(payload, uint64(id))
		for _, v := range e {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
		}
	}
	return payload
}

// readEmbRecord parses the optional embedding record at data[off] and
// grafts its vectors onto metas. Anything unexpected — no record, an
// unknown tag, an inconsistent shape — means "no persisted embeddings",
// never an error: the record is an optional extension and a snapshot
// without one is simply pre-embedding.
func readEmbRecord(data []byte, off int, metas []core.TrajMeta) (fp uint64, ok bool) {
	plen, valid := frameAt(data, off)
	if !valid || plen < embHeaderSize {
		return 0, false
	}
	p := data[off+recHeaderSize : off+recHeaderSize+plen]
	if string(p[:8]) != embMagic {
		return 0, false
	}
	fp = binary.LittleEndian.Uint64(p[8:])
	dim := int(binary.LittleEndian.Uint32(p[16:]))
	count := int(binary.LittleEndian.Uint32(p[20:]))
	if dim < 0 || count < 0 || plen != embHeaderSize+count*(8+dim*8) {
		return 0, false
	}
	for i := 0; i < count; i++ {
		eo := embHeaderSize + i*(8+dim*8)
		id := int(binary.LittleEndian.Uint64(p[eo:]))
		if id < 0 || id >= len(metas) {
			return 0, false
		}
		emb := make([]float64, dim)
		for d := range emb {
			emb[d] = math.Float64frombits(binary.LittleEndian.Uint64(p[eo+8+d*8:]))
		}
		metas[id].Emb = emb
	}
	return fp, true
}

// loadBestSnapshot tries snapshots newest-first and returns the metadata
// of the first one that validates AND is covered by the recovered log
// (applied <= logRecords — a snapshot ahead of the log means the log lost
// a tail the snapshot saw; trusting it would resurrect truncated records'
// metadata with wrong indices). Invalid candidates count as discarded.
// Returns (nil, 0, 0, false) when no snapshot is usable.
func (s *Store) loadBestSnapshot(snaps []int, logRecords int, stats *RecoveryStats) ([]core.TrajMeta, int, uint64, bool) {
	for i := len(snaps) - 1; i >= 0; i-- {
		path := filepath.Join(s.dir, snapName(snaps[i]))
		metas, applied, embFP, hasEmb, err := s.readSnapshot(path)
		if err != nil || applied > logRecords {
			stats.SnapshotsDiscarded++
			continue
		}
		return metas, applied, embFP, hasEmb
	}
	return nil, 0, 0, false
}

// readSnapshot maps and decodes one snapshot file. The mapping is retained
// (returned Rev points alias it). Any framing or consistency violation is
// an error: snapshots are atomic, so a partial one is simply not trusted.
func (s *Store) readSnapshot(path string) ([]core.TrajMeta, int, uint64, bool, error) {
	data, unmap, err := mmapPath(path)
	if err != nil {
		return nil, 0, 0, false, err
	}
	s.mu.Lock()
	s.unmaps = append(s.unmaps, unmap)
	s.mu.Unlock()

	if err := checkFileHeader(data, snapMagic, path); err != nil {
		return nil, 0, 0, false, err
	}
	off := fileHeaderSize
	plen, ok := frameAt(data, off)
	if !ok || plen != manifestPayloadSize {
		return nil, 0, 0, false, fmt.Errorf("storage: %s: bad snapshot manifest", path)
	}
	applied := int(binary.LittleEndian.Uint64(data[off+recHeaderSize:]))
	off += recHeaderSize + plen

	metas := make([]core.TrajMeta, 0, applied)
	for i := 0; i < applied; i++ {
		plen, ok := frameAt(data, off)
		if !ok || plen < metaHeaderSize {
			return nil, 0, 0, false, fmt.Errorf("storage: %s: torn snapshot at meta record %d", path, i)
		}
		p := data[off+recHeaderSize : off+recHeaderSize+plen]
		id := int64(binary.LittleEndian.Uint64(p))
		n := int(binary.LittleEndian.Uint32(p[8:]))
		nrev := int(binary.LittleEndian.Uint32(p[12:]))
		if id != int64(i) || plen != metaHeaderSize+nrev*pointSize {
			return nil, 0, 0, false, fmt.Errorf("storage: %s: inconsistent meta record %d", path, i)
		}
		mbr := geo.Rect{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(p[24:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(p[32:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(p[40:])),
		}
		metas = append(metas, core.TrajMeta{
			N:   n,
			MBR: mbr,
			Rev: traj.Trajectory{ID: int(id), Points: viewPoints(data, off+recHeaderSize+metaHeaderSize, nrev)},
		})
		off += recHeaderSize + plen
	}
	embFP, hasEmb := readEmbRecord(data, off, metas)
	return metas, applied, embFP, hasEmb, nil
}
