package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// File framing, shared by segments and snapshots.
//
//	file   := header record*
//	header := magic[4] version:u32 reserved:u64          (16 bytes)
//	record := payload_len:u32 crc32:u32 payload          (payload_len % 8 == 0)
//
// All integers and float bit patterns are little-endian. Because the
// header and every record are multiples of 8 bytes, any 8-byte-aligned
// field inside a payload is 8-byte-aligned in the file — which makes the
// zero-copy []geo.Point cast over an mmap'd region legal on little-endian
// hosts.
//
// Segment record payload (one trajectory):
//
//	id:i64 npts:u32 reserved:u32 point[npts]             point := x:f64 y:f64 t:f64
const (
	segMagic   = "SSEG"
	snapMagic  = "SCKP"
	fmtVersion = 1

	fileHeaderSize = 16
	recHeaderSize  = 8 // payload_len + crc32
	trajHeaderSize = 16
	pointSize      = 24
)

// nativeLE reports whether this host can reinterpret the on-disk
// little-endian float64 stream in place.
var nativeLE = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

func init() {
	// the zero-copy cast assumes geo.Point is exactly {x, y, t float64}
	if unsafe.Sizeof(geo.Point{}) != pointSize {
		panic("storage: geo.Point layout changed; segment format needs a version bump")
	}
}

func fileHeader(magic string) []byte {
	hdr := make([]byte, fileHeaderSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[4:], fmtVersion)
	return hdr
}

func checkFileHeader(data []byte, magic, path string) error {
	if len(data) < fileHeaderSize {
		return fmt.Errorf("storage: %s: short file header", path)
	}
	if string(data[:4]) != magic {
		return fmt.Errorf("storage: %s: bad magic %q, want %q", path, data[:4], magic)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != fmtVersion {
		return fmt.Errorf("storage: %s: unsupported format version %d", path, v)
	}
	return nil
}

// beginFramed opens a framed record (len | crc | payload) at the end of buf:
// the caller appends the payload and closes the frame with endFramed(buf, at).
func beginFramed(buf []byte) (_ []byte, at int) {
	return append(buf, make([]byte, recHeaderSize)...), len(buf)
}

// endFramed backpatches the length and checksum of the frame opened at at,
// whose payload runs to the end of buf.
func endFramed(buf []byte, at int) {
	payload := buf[at+recHeaderSize:]
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[at+4:], crc32.ChecksumIEEE(payload))
}

// appendTrajRecord appends the framed record for t to buf.
func appendTrajRecord(buf []byte, t traj.Trajectory) []byte {
	buf, at := beginFramed(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(t.ID)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Len()))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // reserved
	buf = appendPoints(buf, t.Points)
	endFramed(buf, at)
	return buf
}

// appendPoints appends the little-endian encoding of pts to buf.
func appendPoints(buf []byte, pts []geo.Point) []byte {
	if nativeLE && len(pts) > 0 {
		raw := unsafe.Slice((*byte)(unsafe.Pointer(&pts[0])), len(pts)*pointSize)
		return append(buf, raw...)
	}
	for _, p := range pts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.T))
	}
	return buf
}

// viewPoints reinterprets n points starting at data[off]. On little-endian
// hosts with aligned data this is a zero-copy view over data (typically an
// mmap); otherwise it decodes into a fresh slice.
func viewPoints(data []byte, off, n int) []geo.Point {
	if n == 0 {
		return nil
	}
	base := &data[off]
	if nativeLE && uintptr(unsafe.Pointer(base))%8 == 0 {
		return unsafe.Slice((*geo.Point)(unsafe.Pointer(base)), n)
	}
	pts := make([]geo.Point, n)
	for i := range pts {
		o := off + i*pointSize
		pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(data[o:]))
		pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(data[o+8:]))
		pts[i].T = math.Float64frombits(binary.LittleEndian.Uint64(data[o+16:]))
	}
	return pts
}

// rawRecord is one decoded segment record; points may alias the mapping.
type rawRecord struct {
	id     int64
	points []geo.Point
}

// readSegment maps segment idx and decodes its records. When allowTorn
// (the active, last segment) a partial or corrupt tail is truncated away
// and recovery continues; in a sealed segment the same condition is an
// error. The mapping is retained in s.unmaps; returned point slices alias
// it.
func (s *Store) readSegment(idx int, allowTorn bool, stats *RecoveryStats) ([]rawRecord, error) {
	path := filepath.Join(s.dir, segName(idx))
	data, unmap, err := mmapPath(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.unmaps = append(s.unmaps, unmap)
	s.mu.Unlock()

	if err := checkFileHeader(data, segMagic, path); err != nil {
		if allowTorn && len(data) < fileHeaderSize {
			// crashed before the header hit the disk: an empty segment
			stats.TornTailTruncations++
			stats.TornTailBytes += int64(len(data))
			return nil, s.truncateSegment(idx, 0)
		}
		return nil, err
	}

	var recs []rawRecord
	off := fileHeaderSize
	for off < len(data) {
		plen, ok := frameAt(data, off)
		if !ok {
			if !allowTorn {
				return nil, fmt.Errorf("storage: %s: corrupt record at offset %d in sealed segment", path, off)
			}
			stats.TornTailTruncations++
			stats.TornTailBytes += int64(len(data) - off)
			return recs, s.truncateSegment(idx, off)
		}
		payload := data[off+recHeaderSize : off+recHeaderSize+plen]
		id := int64(binary.LittleEndian.Uint64(payload))
		npts := int(binary.LittleEndian.Uint32(payload[8:]))
		if plen != trajHeaderSize+npts*pointSize {
			if !allowTorn {
				return nil, fmt.Errorf("storage: %s: record at offset %d: length %d inconsistent with %d points", path, off, plen, npts)
			}
			stats.TornTailTruncations++
			stats.TornTailBytes += int64(len(data) - off)
			return recs, s.truncateSegment(idx, off)
		}
		recs = append(recs, rawRecord{
			id:     id,
			points: viewPoints(data, off+recHeaderSize+trajHeaderSize, npts),
		})
		off += recHeaderSize + plen
	}
	return recs, nil
}

// frameAt validates the record frame at data[off] (length sanity + CRC)
// and returns its payload length.
func frameAt(data []byte, off int) (plen int, ok bool) {
	if off+recHeaderSize > len(data) {
		return 0, false
	}
	plen = int(binary.LittleEndian.Uint32(data[off:]))
	if plen < trajHeaderSize || plen%8 != 0 || off+recHeaderSize+plen > len(data) {
		return 0, false
	}
	want := binary.LittleEndian.Uint32(data[off+4:])
	if crc32.ChecksumIEEE(data[off+recHeaderSize:off+recHeaderSize+plen]) != want {
		return 0, false
	}
	return plen, true
}

// truncateSegment discards a torn tail by truncating the file at off. The
// segment's mapping stays registered and valid: only pages past the new
// EOF become inaccessible, and no decoded record aliases them.
func (s *Store) truncateSegment(idx, off int) error {
	path := filepath.Join(s.dir, segName(idx))
	if off == 0 {
		// nothing valid, not even a header: rewrite the file as a fresh
		// headered segment (no decoded record aliases the mapping, so the
		// registered unmap at Close remains safe)
		if err := os.Truncate(path, 0); err != nil {
			return fmt.Errorf("storage: truncating torn segment: %w", err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := f.Write(fileHeader(segMagic)); err != nil {
			return err
		}
		return f.Sync()
	}
	if err := os.Truncate(path, int64(off)); err != nil {
		return fmt.Errorf("storage: truncating torn tail: %w", err)
	}
	return nil
}
