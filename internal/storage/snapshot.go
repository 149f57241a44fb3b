package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"simsub/internal/core"
	"simsub/internal/failpoint"
	"simsub/internal/geo"
)

// Snapshot file layout ("SSNP" header, then the shared record framing):
//
//	manifest record payload := applied:u64 generation:u64
//	meta record payload     := id:i64 n:u32 nrev:u32 mbr:4*f64 point[nrev]
//	emb record payload      := tag:8B fp:u64 dim:u32 count:u32 entry[count]
//	entry                   := id:u64 val[dim]:f64
//
// The manifest comes first and states how many records the snapshot covers
// (applied) — exactly that many meta records follow, in ID order. The
// generation counter increases with every snapshot so a fallback file is
// recognizably older. A meta record holds N and the MBR: the writer emits
// nrev = 0. Older writers stored each trajectory's reversal in the nrev
// trailing points; the reader still checks their framing and skips them,
// so those snapshots load unchanged, and older readers load these.
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
// known before its first byte — every meta record has the same length — so
// the image is built in one buffer of exactly that size instead of one
// grown by doubling, which at tens of thousands of records was most of the
// time a snapshot took.
func (s *Store) snapshotImage(recs []Record) []byte {
	gen := uint64(len(recs)) // record count is monotone, so it doubles as generation
	emb := s.embPayload(len(recs))
	size := fileHeaderSize + recHeaderSize + manifestPayloadSize + len(recs)*(recHeaderSize+metaHeaderSize)
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
		buf = binary.LittleEndian.AppendUint32(buf, 0) // nrev
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Meta.MBR.MinX))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Meta.MBR.MinY))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Meta.MBR.MaxX))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Meta.MBR.MaxY))
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
	// by division: count*entry can wrap for hostile u32s
	body, entry := plen-embHeaderSize, 8+dim*8
	if dim < 0 || count < 0 || body%entry != 0 || body/entry != count {
		return 0, false
	}
	for i := 0; i < count; i++ {
		eo := embHeaderSize + i*entry
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
// of the first one that decodes against the recovered log's logRecords.
// Unreadable or invalid candidates count as discarded. Returns
// (nil, 0, false) when no snapshot is usable.
func (s *Store) loadBestSnapshot(snaps []int, logRecords int, stats *RecoveryStats) ([]core.TrajMeta, uint64, bool) {
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(s.dir, snapName(snaps[i])))
		if err == nil {
			metas, embFP, hasEmb, err := decodeSnapshot(data, logRecords)
			if err == nil {
				return metas, embFP, hasEmb
			}
		}
		stats.SnapshotsDiscarded++
	}
	return nil, 0, false
}

// decodeSnapshot decodes a snapshot image into the metadata of the records
// it covers, exactly applied of them. Nothing returned aliases data. Any
// framing or consistency violation is an error: snapshots are atomic, so a
// partial one is simply not trusted. So is one ahead of the log (applied >
// logRecords): the log lost a tail the snapshot saw, and trusting it would
// resurrect truncated records' metadata with wrong indices.
func decodeSnapshot(data []byte, logRecords int) ([]core.TrajMeta, uint64, bool, error) {
	if err := checkFileHeader(data, snapMagic, "snapshot"); err != nil {
		return nil, 0, false, err
	}
	off := fileHeaderSize
	plen, ok := frameAt(data, off)
	if !ok || plen != manifestPayloadSize {
		return nil, 0, false, errors.New("storage: bad snapshot manifest")
	}
	// checked before it sizes anything: the u64 is the file's word, not ours
	applied := binary.LittleEndian.Uint64(data[off+recHeaderSize:])
	if applied > uint64(logRecords) {
		return nil, 0, false, fmt.Errorf("storage: snapshot covers %d records, the log holds %d", applied, logRecords)
	}
	off += recHeaderSize + plen

	metas := make([]core.TrajMeta, applied)
	for i := range metas {
		plen, ok := frameAt(data, off)
		if !ok || plen < metaHeaderSize {
			return nil, 0, false, fmt.Errorf("storage: torn snapshot at meta record %d", i)
		}
		p := data[off+recHeaderSize : off+recHeaderSize+plen]
		id := int64(binary.LittleEndian.Uint64(p))
		nrev := int(binary.LittleEndian.Uint32(p[12:]))
		if id != int64(i) || plen != metaHeaderSize+nrev*pointSize {
			return nil, 0, false, fmt.Errorf("storage: inconsistent snapshot meta record %d", i)
		}
		metas[i] = core.TrajMeta{
			N: int(binary.LittleEndian.Uint32(p[8:])),
			MBR: geo.Rect{
				MinX: math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
				MinY: math.Float64frombits(binary.LittleEndian.Uint64(p[24:])),
				MaxX: math.Float64frombits(binary.LittleEndian.Uint64(p[32:])),
				MaxY: math.Float64frombits(binary.LittleEndian.Uint64(p[40:])),
			},
		}
		off += recHeaderSize + plen
	}
	embFP, hasEmb := readEmbRecord(data, off, metas)
	return metas, embFP, hasEmb, nil
}
