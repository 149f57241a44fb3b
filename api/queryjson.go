package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"simsub/internal/traj"
)

// The one codec of POST /v2/query answers. Every tier writes and reads the
// same fixed-shape value: the node and the router front end encode it, the
// router's node hop and every client.Query decode it. Both directions run
// in one pass with no reflection. The encoder writes byte for byte what
// json.Encoder.Encode writes (without its newline); the decoder reads
// exactly those bytes and hands anything else to encoding/json, so no body
// decodes differently from how encoding/json decodes it.

// AppendJSON appends r as json.Encoder.Encode writes it, without the
// trailing newline. Matches, totals, flags and times are appended by hand,
// floats by traj.AppendFloat; the rare error, partial and degraded members
// go through json.Marshal, so their strings are escaped exactly as
// encoding/json escapes them. A NaN or ±Inf float is an error, as it is for
// encoding/json; dst is then returned as it was.
func (r *QueryResponse) AppendJSON(dst []byte) ([]byte, error) {
	if r == nil {
		return append(dst, "null"...), nil
	}
	// one growth up front instead of a dozen: ~100 bytes a match
	n := 32
	for i := range r.Results {
		n += 96 + 128*len(r.Results[i].Matches)
	}
	out := append(slices.Grow(dst, n), `{"results":`...)
	if r.Results == nil {
		out = append(out, "null"...)
	} else {
		out = append(out, '[')
		for i := range r.Results {
			if i > 0 {
				out = append(out, ',')
			}
			var err error
			if out, err = r.Results[i].appendJSON(out); err != nil {
				return dst, fmt.Errorf("api: encoding result %d: %w", i, err)
			}
		}
		out = append(out, ']')
	}
	out = append(out, `,"took_ms":`...)
	out, err := appendFloat(out, "took_ms", r.TookMS)
	if err != nil {
		return dst, fmt.Errorf("api: encoding the response: %w", err)
	}
	return append(out, '}'), nil
}

func (r *QueryResult) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"matches":`...)
	if r.Matches == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, m := range r.Matches {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendMatch(dst, m); err != nil {
				return dst, fmt.Errorf("match %d: %w", i, err)
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, int64(r.Total), 10)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, r.Cached)
	for _, member := range [...]struct {
		key   string
		value any
		set   bool
	}{
		{`,"error":`, r.Error, r.Error != nil},
		{`,"partial":`, r.Partial, r.Partial != nil},
		{`,"degraded":`, r.Degraded, r.Degraded != nil},
	} {
		if !member.set {
			continue
		}
		b, err := json.Marshal(member.value)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, member.key...), b...)
	}
	dst = append(dst, `,"took_ms":`...)
	dst, err := appendFloat(dst, "took_ms", r.TookMS)
	if err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendMatch appends m as encoding/json writes it. A NaN or ±Inf distance
// or similarity is an error; dst is then returned as it was.
func appendMatch(dst []byte, m Match) ([]byte, error) {
	out := append(dst, `{"traj_id":`...)
	out = strconv.AppendInt(out, int64(m.TrajID), 10)
	out = append(out, `,"start":`...)
	out = strconv.AppendInt(out, int64(m.Start), 10)
	out = append(out, `,"end":`...)
	out = strconv.AppendInt(out, int64(m.End), 10)
	out = append(out, `,"dist":`...)
	out, err := appendFloat(out, "dist", m.Dist)
	if err != nil {
		return dst, err
	}
	out = append(out, `,"sim":`...)
	if out, err = appendFloat(out, "sim", m.Sim); err != nil {
		return dst, err
	}
	out = append(out, `,"explored":`...)
	out = strconv.AppendInt(out, int64(m.Explored), 10)
	return append(out, '}'), nil
}

// appendFloat is traj.AppendFloat with encoding/json's refusal of the
// values JSON cannot express.
func appendFloat(dst []byte, name string, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("%s is %s, which JSON cannot express", name, strconv.FormatFloat(f, 'g', -1, 64))
	}
	return traj.AppendFloat(dst, f), nil
}

// ReadQueryResponse decodes the JSON value r starts with into v, as
// json.NewDecoder(r).Decode(v) does, and ignores what follows it. It reads
// r to its end. When v holds no results (encoding/json would decode into
// them) and the value is written the way AppendJSON writes it, it is read
// in one pass with no reflection; anything else — whitespace, another key
// order or case, a repeated key, an error, partial or degraded member, a
// number JSON does not allow or int cannot hold, a read error — goes to
// encoding/json unchanged.
func ReadQueryResponse(r io.Reader, v *QueryResponse) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyBufs.Put(buf)
		}
	}()
	buf.Reset()
	_, err := buf.ReadFrom(r)
	// both decoders copy what they keep, so buf can go back to the pool
	b := buf.Bytes()
	if err == nil && v.Results == nil {
		if resp, ok := parseQueryResponse(b); ok {
			*v = resp
			return nil
		}
	}
	var rest io.Reader = bytes.NewReader(b)
	if err != nil {
		rest = io.MultiReader(rest, &failingReader{err})
	}
	return json.NewDecoder(rest).Decode(v)
}

// bodyBufs holds ReadQueryResponse's body buffers; one larger than
// maxPooledBody is dropped rather than kept.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// failingReader replays the read error that ended the body, so that the
// fallback decoder sees the body exactly as it came.
type failingReader struct{ err error }

func (f *failingReader) Read([]byte) (int, error) { return 0, f.err }

// parseQueryResponse reads a QueryResponse as AppendJSON writes one with
// no error, partial or degraded member, and reports false for anything
// else.
func parseQueryResponse(b []byte) (QueryResponse, bool) {
	p := &respParser{b: b}
	var r QueryResponse
	if !p.lit(`{"results":`) {
		return r, false
	}
	if !p.lit("null") {
		if !p.lit("[") {
			return r, false
		}
		r.Results = make([]QueryResult, 0, 1)
		for !p.lit("]") {
			if len(r.Results) > 0 && !p.lit(",") {
				return r, false
			}
			var res QueryResult
			if !p.result(&res) {
				return r, false
			}
			r.Results = append(r.Results, res)
		}
	}
	ok := p.lit(`,"took_ms":`)
	if ok {
		r.TookMS, ok = p.float()
	}
	return r, ok && p.lit("}")
}

// respParser is parseQueryResponse's cursor over the body.
type respParser struct {
	b []byte
	i int
}

// lit consumes s if the body goes on with it.
func (p *respParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

func (p *respParser) result(res *QueryResult) bool {
	if !p.lit(`{"matches":`) {
		return false
	}
	if !p.lit("null") {
		if !p.lit("[") {
			return false
		}
		// a match holds no array, so the list ends at the next ']', and
		// each of its matches closes one '}'
		end := bytes.IndexByte(p.b[p.i:], ']')
		if end < 0 {
			return false
		}
		res.Matches = make([]Match, 0, bytes.Count(p.b[p.i:p.i+end], []byte{'}'}))
		for !p.lit("]") {
			if len(res.Matches) > 0 && !p.lit(",") {
				return false
			}
			var m Match
			if !p.match(&m) {
				return false
			}
			res.Matches = append(res.Matches, m)
		}
	}
	ok := p.lit(`,"total":`)
	if ok {
		res.Total, ok = p.int()
	}
	if ok = ok && p.lit(`,"cached":`); ok {
		res.Cached, ok = p.bool()
	}
	if ok = ok && p.lit(`,"took_ms":`); ok {
		res.TookMS, ok = p.float()
	}
	return ok && p.lit("}")
}

func (p *respParser) match(m *Match) bool {
	ok := p.lit(`{"traj_id":`)
	if ok {
		m.TrajID, ok = p.int()
	}
	if ok = ok && p.lit(`,"start":`); ok {
		m.Start, ok = p.int()
	}
	if ok = ok && p.lit(`,"end":`); ok {
		m.End, ok = p.int()
	}
	if ok = ok && p.lit(`,"dist":`); ok {
		m.Dist, ok = p.float()
	}
	if ok = ok && p.lit(`,"sim":`); ok {
		m.Sim, ok = p.float()
	}
	if ok = ok && p.lit(`,"explored":`); ok {
		m.Explored, ok = p.int()
	}
	return ok && p.lit("}")
}

func (p *respParser) bool() (bool, bool) {
	if p.lit("true") {
		return true, true
	}
	return false, p.lit("false")
}

// int reads an integer as encoding/json reads one into an int: a number
// with no fraction or exponent that int can hold. A fraction or an
// exponent is left unread, so the literal after it fails.
func (p *respParser) int() (int, bool) {
	start := p.i
	if !p.digits() {
		return 0, false
	}
	n, err := strconv.ParseInt(string(p.b[start:p.i]), 10, strconv.IntSize)
	return int(n), err == nil
}

// float reads a number as encoding/json reads one into a float64.
func (p *respParser) float() (float64, bool) {
	start := p.i
	if !p.digits() {
		return 0, false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if !p.run() {
			return 0, false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if !p.run() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	return f, err == nil
}

// digits reads JSON's integer part: an optional minus, then 0 or a run of
// digits that does not start with 0.
func (p *respParser) digits() bool {
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	if p.i < len(p.b) && p.b[p.i] == '0' {
		p.i++
		return true
	}
	return p.run()
}

// run reads one or more decimal digits.
func (p *respParser) run() bool {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}
