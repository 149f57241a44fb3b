package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"unsafe"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// File framing, shared by segments and snapshots.
//
//	file   := header frame*
//	header := magic[4] version:u32 base:u64              (16 bytes)
//	frame  := payload_len:u32 crc32:u32 payload          (payload_len % 8 == 0)
//
// All integers and float bit patterns are little-endian. Because the
// header and every frame are multiples of 8 bytes, any 8-byte-aligned
// field inside a payload is 8-byte-aligned in the file — which makes the
// zero-copy []geo.Point cast over an mmap'd region legal on little-endian
// hosts.
//
// A segment frame holds one Append, all of its records, so a batch is
// recovered whole or not at all:
//
//	payload := first_id:u64 count:u32 reserved:u32 record[count]
//	record  := npts:u32 reserved:u32 point[npts]         point := x:f64 y:f64 t:f64
//
// A segment header's base is the number of records acknowledged when the
// segment was created, the id its first frame must carry; a snapshot's is 0.
const (
	segMagic   = "SSEG"
	snapMagic  = "SCKP"
	fmtVersion = 2

	fileHeaderSize  = 16
	recHeaderSize   = 8 // payload_len + crc32
	batchHeaderSize = 16
	trajHeaderSize  = 8
	pointSize       = 24
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
		return fmt.Errorf("storage: %s: unsupported format version %d, want %d", path, v, fmtVersion)
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

// appendBatch appends the frame holding ts, whose first record has id
// first, to buf.
func appendBatch(buf []byte, first int, ts []traj.Trajectory) []byte {
	buf, at := beginFramed(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(first))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ts)))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // reserved
	for _, t := range ts {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Len()))
		buf = binary.LittleEndian.AppendUint32(buf, 0) // reserved
		buf = appendPoints(buf, t.Points)
	}
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

// segment is one decoded segment file.
type segment struct {
	base    uint64  // records acknowledged when the segment was created
	batches []batch // its leading whole frames, in file order
	end     int     // offset just past the last whole frame
	size    int     // file size; the bytes from end on are a torn tail
}

// batch is one decoded frame: the records of one Append. Point slices may
// alias the mapping.
type batch struct {
	first  uint64
	points [][]geo.Point
	size   int // frame bytes
}

// readSegment maps segment idx and decodes its frames up to the first one
// that is not whole; what follows is the torn tail, which replay judges.
// The mapping is retained in s.unmaps; returned point slices alias it.
func (s *Store) readSegment(idx int) (segment, error) {
	path := filepath.Join(s.dir, segName(idx))
	data, unmap, err := mmapPath(path)
	if err != nil {
		return segment{}, err
	}
	s.mu.Lock()
	s.unmaps = append(s.unmaps, unmap)
	s.mu.Unlock()

	// segment files are renamed into place only once their header is
	// durable, so a bad header is damage, not a crash
	if err := checkFileHeader(data, segMagic, path); err != nil {
		return segment{}, err
	}
	seg := segment{base: binary.LittleEndian.Uint64(data[8:]), end: fileHeaderSize, size: len(data)}
	for seg.end < len(data) {
		b, ok := batchAt(data, seg.end)
		if !ok {
			break
		}
		seg.batches = append(seg.batches, b)
		seg.end += b.size
	}
	return seg, nil
}

// batchAt decodes the frame at data[off]; ok is false unless the frame is
// whole (length, CRC) and its records fill its payload exactly.
func batchAt(data []byte, off int) (b batch, ok bool) {
	plen, ok := frameAt(data, off)
	if !ok || plen < batchHeaderSize {
		return batch{}, false
	}
	p := off + recHeaderSize
	b = batch{first: binary.LittleEndian.Uint64(data[p:]), size: recHeaderSize + plen}
	count := binary.LittleEndian.Uint32(data[p+8:])
	at, end := p+batchHeaderSize, p+plen
	for range count {
		if end-at < trajHeaderSize {
			return batch{}, false
		}
		npts := int(binary.LittleEndian.Uint32(data[at:]))
		at += trajHeaderSize
		if npts > (end-at)/pointSize {
			return batch{}, false
		}
		b.points = append(b.points, viewPoints(data, at, npts))
		at += npts * pointSize
	}
	return b, at == end
}

// frameAt validates the frame at data[off] (length sanity + CRC) and
// returns its payload length.
func frameAt(data []byte, off int) (plen int, ok bool) {
	if off+recHeaderSize > len(data) {
		return 0, false
	}
	plen = int(binary.LittleEndian.Uint32(data[off:]))
	if plen%8 != 0 || off+recHeaderSize+plen > len(data) {
		return 0, false
	}
	want := binary.LittleEndian.Uint32(data[off+4:])
	if crc32.ChecksumIEEE(data[off+recHeaderSize:off+recHeaderSize+plen]) != want {
		return 0, false
	}
	return plen, true
}

// replay reads segments 0..n-1 in order and returns the records of the
// whole batches the recovery rules let stand, and the last segment read:
//
//   - a segment's base id drops every record at or above it (an Append
//     that failed after its frame reached the file);
//   - a sealed segment may end in a torn frame only where the next base id
//     is the count recovered before the tear (an Append that failed
//     mid-write); the last may always end in one (a crash mid-write);
//   - every frame carries the next dense id, and a base id falls on a
//     frame boundary. Anything else is damage, and an error.
func (s *Store) replay(n int, stats *RecoveryStats) ([]traj.Trajectory, segment, error) {
	var recs []traj.Trajectory
	var kept []batch // recovered so far
	var seg segment
	torn := -1 // records recovered before the previous segment's torn tail
	for i := range n {
		var err error
		if seg, err = s.readSegment(i); err != nil {
			return nil, seg, err
		}
		switch {
		case torn >= 0 && seg.base != uint64(torn):
			return nil, seg, fmt.Errorf("storage: %s: torn tail after record %d, but the next segment starts at %d", segName(i-1), torn, seg.base)
		case seg.base > uint64(len(recs)):
			return nil, seg, fmt.Errorf("storage: %s starts at record %d, but the log before it holds %d", segName(i), seg.base, len(recs))
		case seg.base < uint64(len(recs)):
			k := len(kept) - 1
			for kept[k].first > seg.base {
				k--
			}
			if kept[k].first != seg.base {
				return nil, seg, fmt.Errorf("storage: %s starts at record %d, inside a batch", segName(i), seg.base)
			}
			stats.TornTailTruncations++
			for _, b := range kept[k:] {
				stats.TornTailBytes += int64(b.size)
			}
			recs, kept = recs[:seg.base], kept[:k]
		}
		for _, b := range seg.batches {
			if b.first != uint64(len(recs)) {
				return nil, seg, fmt.Errorf("storage: %s: batch carries id %d, want dense append order at %d", segName(i), b.first, len(recs))
			}
			kept = append(kept, b)
			for _, p := range b.points {
				recs = append(recs, traj.Trajectory{ID: len(recs), Points: p})
			}
		}
		torn = -1
		if seg.end < seg.size {
			stats.TornTailTruncations++
			stats.TornTailBytes += int64(seg.size - seg.end)
			torn = len(recs)
		}
	}
	return recs, seg, nil
}
