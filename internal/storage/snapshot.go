package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"simsub/internal/failpoint"
)

// Snapshot file layout: the shared file header under the "SCKP" magic,
// then exactly one framed record, the embedding checkpoint:
//
//	payload := tag:8B fp:u64 dim:u32 count:u32 entry[count]
//	entry   := id:u64 val[dim]:f64
//
// A snapshot persists the encoder embeddings the engine derived (keyed by
// the encoder fingerprint), so recovery under the same encoder skips
// re-encoding the corpus. Entries are sparse (id-tagged): a record the
// engine had not embedded yet is simply absent. Everything else a scan
// needs — point counts and MBRs — is re-derived from the log on Open, so
// a snapshot never duplicates what the log already says. Files under
// older magics fail the header check and are discarded, never migrated.
const (
	embHeaderSize = 24
	embMagic      = "SEMB0001"
)

// snapshotImage encodes the checkpoint of the current embedding set,
// restricted to record IDs below covered. The file's size is known before
// its first byte, so the image is built in one buffer of exactly that size.
// It is nil when there is nothing to checkpoint: no embedding set, or one
// unchanged since the last image (clean).
func (s *Store) snapshotImage(covered int) []byte {
	s.embMu.Lock()
	defer s.embMu.Unlock()
	if !s.hasEmb || !s.embDirty {
		return nil
	}
	dim, count := 0, 0
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
	plen := embHeaderSize + count*(8+dim*8)
	buf := append(make([]byte, 0, fileHeaderSize+recHeaderSize+plen), fileHeader(snapMagic)...)
	buf, at := beginFramed(buf)
	buf = append(buf, embMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, s.embFP)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(count))
	for id, e := range s.embs {
		if id >= covered {
			break
		}
		if len(e) != dim || dim == 0 {
			continue
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
		for _, v := range e {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	endFramed(buf, at)
	s.embDirty = false
	return buf
}

// writeSnapshot persists buf as the snapshot covering the log's first
// covered records, atomically (temp file + fsync + rename).
func (s *Store) writeSnapshot(buf []byte, covered int) error {
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
	final := filepath.Join(s.dir, snapName(covered))
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

// loadBestSnapshot tries snapshots newest-first and returns the embedding
// set of the first one that decodes against the recovered log's
// logRecords. Unreadable or invalid candidates count as discarded. Returns
// ok == false when no snapshot is usable.
func (s *Store) loadBestSnapshot(snaps []int, logRecords int, stats *RecoveryStats) (embs [][]float64, fp uint64, ok bool) {
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(s.dir, snapName(snaps[i])))
		if err == nil {
			embs, fp, err = decodeSnapshot(data, snaps[i], logRecords)
			if err == nil {
				return embs, fp, true
			}
		}
		stats.SnapshotsDiscarded++
	}
	return nil, 0, false
}

// decodeSnapshot decodes the checkpoint image of a snapshot that covers
// the log's first covered records (its file name says how many) into an
// embedding set indexed by record ID, logRecords long. Nothing returned
// aliases data. Any framing or consistency violation is an error:
// snapshots are atomic, so a partial one is simply not trusted. So is one
// ahead of the log (covered > logRecords): the log lost a tail the
// snapshot saw, and trusting it would attach vectors to the wrong records.
func decodeSnapshot(data []byte, covered, logRecords int) ([][]float64, uint64, error) {
	if covered > logRecords {
		return nil, 0, fmt.Errorf("storage: snapshot covers %d records, the log holds %d", covered, logRecords)
	}
	if err := checkFileHeader(data, snapMagic, "snapshot"); err != nil {
		return nil, 0, err
	}
	off := fileHeaderSize
	plen, ok := frameAt(data, off)
	if !ok || plen < embHeaderSize || off+recHeaderSize+plen != len(data) {
		return nil, 0, errors.New("storage: torn snapshot")
	}
	p := data[off+recHeaderSize : off+recHeaderSize+plen]
	if string(p[:8]) != embMagic {
		return nil, 0, fmt.Errorf("storage: bad checkpoint tag %q", p[:8])
	}
	fp := binary.LittleEndian.Uint64(p[8:])
	dim := int(binary.LittleEndian.Uint32(p[16:]))
	count := int(binary.LittleEndian.Uint32(p[20:]))
	// by division: count*entry can wrap for hostile u32s
	body, entry := plen-embHeaderSize, 8+dim*8
	if body%entry != 0 || body/entry != count {
		return nil, 0, errors.New("storage: inconsistent checkpoint shape")
	}
	embs := make([][]float64, logRecords)
	for i := 0; i < count; i++ {
		eo := embHeaderSize + i*entry
		id := binary.LittleEndian.Uint64(p[eo:])
		if id >= uint64(covered) || embs[id] != nil {
			return nil, 0, fmt.Errorf("storage: checkpoint entry %d names record %d of %d", i, id, covered)
		}
		emb := make([]float64, dim)
		for d := range emb {
			emb[d] = math.Float64frombits(binary.LittleEndian.Uint64(p[eo+8+d*8:]))
		}
		embs[id] = emb
	}
	return embs, fp, nil
}
