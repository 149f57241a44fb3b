package client

import (
	"errors"
	"io"
	"sync"

	"simsub/api"
)

// loadChunk is how many bytes of a /v2/load body loadBody encodes ahead of
// the connection: each Read that finds nothing encoded encodes whole
// trajectories until it holds at least this much (one trajectory longer
// than that is encoded whole).
const loadChunk = 32 << 10

// loadSource makes the bodies of one Load over its trajectories: the first
// one, and any the transport asks for to replay a request that never
// reached the server. Once Load returns, detach stops them all, so that
// none reads the caller's trajectories afterwards: net/http may still be
// pulling a body the server answered early.
type loadSource struct {
	ts       []api.Trajectory
	mu       sync.Mutex // held by a Read while it encodes, and by detach
	detached bool
}

var errLoadDetached = errors.New("client: load body read after the load returned")

// open returns a fresh body from the batch's start. It has req.GetBody's
// signature and never fails.
func (s *loadSource) open() (io.ReadCloser, error) { return &loadBody{src: s}, nil }

func (s *loadSource) detach() {
	s.mu.Lock()
	s.detached = true
	s.mu.Unlock()
}

// loadBody is a POST /v2/load body encoded on demand, the bytes
// json.Marshal(api.LoadRequest{Trajectories: ts}) writes. net/http's
// writer pulls it, so the client encodes the next chunk while the server's
// scanner decodes the last one; it starts no goroutine. Its trajectories
// were checked finite before the request began, so encoding cannot fail.
type loadBody struct {
	src     *loadSource
	started bool
	next    int    // the next trajectory to encode
	buf     []byte // encoded; buf[off:] not read yet
	off     int
	err     error // io.EOF once the closing brace is in buf
}

func (b *loadBody) Read(p []byte) (int, error) {
	b.src.mu.Lock()
	defer b.src.mu.Unlock()
	if b.src.detached {
		return 0, errLoadDetached
	}
	if b.off == len(b.buf) {
		if b.err != nil {
			return 0, b.err
		}
		b.buf, b.off = b.encode(b.buf[:0]), 0
	}
	n := copy(p, b.buf[b.off:])
	b.off += n
	return n, nil
}

// encode appends the body's next chunk to dst.
func (b *loadBody) encode(dst []byte) []byte {
	ts := b.src.ts
	if !b.started {
		b.started = true
		dst = append(dst, `{"trajectories":`...)
		if ts == nil {
			b.err = io.EOF
			return append(dst, "null}"...)
		}
		dst = append(dst, '[')
	}
	for ; b.next < len(ts) && len(dst) < loadChunk; b.next++ {
		if b.next > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = ts[b.next].AppendJSON(dst); err != nil {
			b.err = err
			return dst
		}
	}
	if b.next == len(ts) {
		b.err = io.EOF
		dst = append(dst, "]}"...)
	}
	return dst
}

// Close is a no-op: the transport closes every body it is done with, but
// only Load's return ends the trajectories' use (loadSource.detach).
func (b *loadBody) Close() error { return nil }
