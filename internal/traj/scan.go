package traj

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"simsub/internal/geo"
)

// Scanner is the one hand-written decoder of trajectory JSON. It parses
// straight into coordinates with no reflection and, reading a stream, holds
// one record at a time, so neither its memory nor its time depends on how
// long the input is. It reads two grammars.
//
// The stream grammar, behind POST /v2/load/stream and ReadNDJSON, is what
// encoding/json accepted into struct{ Points [][]float64 `json:"points"` }
// followed by the wire boundary's trajectory rules:
//
//   - the stream is a sequence of JSON objects separated by optional
//     whitespace (space, tab, CR, LF); a newline per record is conventional,
//     not required;
//   - the key "points" (matched like encoding/json does: after unescaping,
//     ignoring case) holds an array of points, each [x, y] or [x, y, t] with
//     JSON numbers that fit a float64; a missing t is the point's index; a
//     null value is an empty array, and when the key repeats the last value
//     wins;
//   - the key "id", when its value is an integer literal, becomes the
//     trajectory's ID (the server ignores it and assigns its own);
//   - every other key's value may be any well-formed JSON value, nested up
//     to encoding/json's depth of 10000, and is skipped;
//   - a record must end up with at least one point, and every point with
//     two or three non-null coordinates.
//
// The strict grammar, behind ReadBatch (POST /v2/load) and UnmarshalPoints
// (every api.Trajectory), is the one encoding/json applies with
// DisallowUnknownFields to one JSON value, except that a null coordinate is
// an error rather than a zero:
//
//   - a record is an object whose only key is "points", matched as above
//     and holding points of any number of coordinates (the arity rules are
//     the caller's, api.Trajectory.ToTraj); every other key, "id" included,
//     is an unknown field;
//   - a value of the wrong JSON type, a number that does not fit a float64
//     and an unknown field are errors, but like encoding/json's they are
//     reported only once the whole value has been read, so that malformed
//     JSON or a read error further on takes precedence;
//   - a value decodes into what an earlier one of the same key left, as
//     encoding/json decodes into a struct: a null record, or one without
//     "points", keeps the points an earlier value gave its position.
//
// In the stream grammar anything else is an error, after which the scanner
// is stuck: Next keeps returning the same error.
type Scanner struct {
	r   io.Reader
	max int

	// buf[start:pos] is the consumed part of the current record, buf[pos:]
	// what has been read ahead; base is the stream offset of buf[0] and
	// mark the start of the literal being read.
	buf              []byte
	start, pos, mark int
	base             int64

	err  error // what Next returns from now on
	rerr error // why there is no more input, once r has said so

	strict  bool  // the strict grammar
	depth   int   // how many arrays and objects enclose the value at pos
	typeErr error // strict: the first value of the wrong type, or unknown field

	// The points value being read: point i's coordinates are
	// coords[ends[i-1]:ends[i]], a null one held as NaN, which no JSON
	// number parses to.
	coords []float64
	ends   []int
	open   []byte // skip's stack of open '{' and '['
}

// ErrRecordTooLarge is returned by Scanner.Next for a record longer than the
// scanner's limit.
var ErrRecordTooLarge = errors.New("traj: record exceeds the size limit")

// A SyntaxError reports input that is not of the Scanner's grammar:
// malformed JSON, a value of the wrong JSON type, a coordinate outside
// float64's range or, in the strict grammar, an unknown field or data after
// the value.
type SyntaxError struct {
	Offset int64 // stream offset of the offending byte
	Msg    string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("%s at offset %d", e.Msg, e.Offset) }

// An InvalidError reports a well-formed record whose trajectory breaks one of
// the wire boundary's rules (the ones api.Trajectory.ToTraj enforces on the
// other routes): it is empty, or a point has the wrong number of
// coordinates or a null one.
type InvalidError struct{ Msg string }

func (e *InvalidError) Error() string { return e.Msg }

const (
	scanBufSize  = 64 << 10
	scanMaxDepth = 10000 // encoding/json's nesting limit
)

// NewScanner returns a Scanner over r that rejects any single record longer
// than maxRecord bytes (which must be positive) with ErrRecordTooLarge.
func NewScanner(r io.Reader, maxRecord int) *Scanner {
	return newScanner(r, maxRecord, scanBufSize)
}

// newScanner is NewScanner with the initial buffer size given, so that tests
// can make every record straddle it.
func newScanner(r io.Reader, maxRecord, bufSize int) *Scanner {
	maxRecord = max(maxRecord, 1)
	return &Scanner{r: r, max: maxRecord, buf: make([]byte, 0, min(bufSize, maxRecord))}
}

// Next returns the stream's next trajectory, or io.EOF after the last one.
// The points are freshly allocated at their final length.
func (s *Scanner) Next() (Trajectory, error) {
	if s.err == nil {
		var t Trajectory
		if t, s.err = s.record(); s.err == nil {
			return t, nil
		}
	}
	return Trajectory{}, s.err
}

// ReadBatch decodes r, which must hold exactly one JSON value, in the strict
// grammar: an object whose only key is key (matched like "points"), holding
// an array of records. It returns the points of every record, each record's
// over one backing array; null, or a missing key, is no records. An error
// reading r is returned as it is. Only whitespace may follow the value;
// anything else is, like encoding/json's Decoder, an error unless reading
// it fails first.
func ReadBatch(r io.Reader, key string) ([][][]float64, error) {
	s := &Scanner{r: r, max: math.MaxInt, buf: make([]byte, 0, scanBufSize), strict: true}
	recs, err := s.batch([]byte(key))
	if err == nil {
		err = s.typeErr
	}
	if err == nil {
		err = s.trailing()
	}
	if err != nil {
		return nil, err
	}
	for i, pts := range recs {
		if j := nullPoint(pts); j >= 0 {
			return nil, &InvalidError{fmt.Sprintf("trajectory %d: point %d has a null coordinate", i, j)}
		}
	}
	return recs, nil
}

// UnmarshalPoints decodes data, one record of the strict grammar, into *pts,
// the way encoding/json decodes into a struct{ Points [][]float64 }: null,
// or a record without "points", leaves *pts as it was. The points decoded
// share one backing array.
func UnmarshalPoints(data []byte, pts *[][]float64) error {
	// rerr is set from the start, so buf, the caller's, is never refilled
	s := Scanner{buf: data[:len(data):len(data)], rerr: io.EOF, strict: true}
	c, err := s.token()
	if err != nil {
		return err
	}
	var present bool
	switch c {
	case 'n':
		err = s.literal("null")
	case '{':
		present, _, err = s.members()
	default:
		err = s.mismatch(c, "invalid character %q, want the '{' of a trajectory object")
	}
	if err == nil {
		err = s.typeErr
	}
	if err == nil {
		if c, err = s.token(); err == nil {
			err = s.syntax("invalid character %q after the trajectory object", c)
		} else if err == io.ErrUnexpectedEOF {
			err = nil
		}
	}
	if err != nil || !present {
		return err
	}
	decoded := s.decoded()
	if j := nullPoint(decoded); j >= 0 {
		return &InvalidError{fmt.Sprintf("point %d has a null coordinate", j)}
	}
	*pts = decoded
	return nil
}

// nullPoint returns the index of the first point holding a null coordinate,
// or -1.
func nullPoint(pts [][]float64) int {
	for i, p := range pts {
		for _, v := range p {
			if v != v {
				return i
			}
		}
	}
	return -1
}

// fill reads more input behind buf, first making room if there is none: by
// dropping what precedes the current record, else by growing up to the
// record limit. It reports whether buf[pos] became readable; when not,
// rerr says why.
func (s *Scanner) fill() bool {
	if s.rerr != nil {
		return false
	}
	if len(s.buf) == cap(s.buf) {
		switch {
		case s.start > 0:
			s.buf = s.buf[:copy(s.buf, s.buf[s.start:])]
			s.base += int64(s.start)
			s.pos, s.mark, s.start = s.pos-s.start, s.mark-s.start, 0
		case len(s.buf) >= s.max:
			s.rerr = ErrRecordTooLarge
			return false
		default:
			s.buf = append(make([]byte, 0, min(2*cap(s.buf), s.max)), s.buf...)
		}
	}
	for range 100 { // bufio's bound on consecutive empty reads
		n, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+n]
		if err != nil {
			s.rerr = err
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
	s.rerr = io.ErrNoProgress
	return false
}

// more reports whether buf[pos] is readable, reading ahead when needed.
func (s *Scanner) more() bool { return s.pos < len(s.buf) || s.fill() }

// cut is the error for input that ends, or cannot be read further, inside a
// record.
func (s *Scanner) cut() error {
	if s.rerr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return s.rerr
}

func (s *Scanner) syntax(format string, args ...any) error {
	return &SyntaxError{Offset: s.base + int64(s.pos), Msg: fmt.Sprintf(format, args...)}
}

// token skips whitespace and returns the byte after it, unconsumed. Input
// ending here is an error: token is only called inside a record.
func (s *Scanner) token() (byte, error) {
	for s.more() {
		switch c := s.buf[s.pos]; c {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return c, nil
		}
	}
	return 0, s.cut()
}

// sep consumes what follows a member or element: a comma, after which it
// returns the first byte of the next one, or the closing byte end.
func (s *Scanner) sep(end byte) (next byte, done bool, err error) {
	c, err := s.token()
	switch {
	case err != nil:
		return 0, false, err
	case c == end:
		s.pos++
		return 0, true, nil
	case c == ',':
		s.pos++
		next, err = s.token()
		return next, false, err
	}
	return 0, false, s.syntax("invalid character %q after a value, want ',' or %q", c, end)
}

var (
	pointsKey = []byte("points")
	idKey     = []byte("id")
)

// record parses one stream record, from the whitespace before it to its
// closing brace.
func (s *Scanner) record() (Trajectory, error) {
	for {
		s.start = s.pos // whitespace between records belongs to neither
		if !s.more() {
			return Trajectory{}, s.rerr
		}
		if c := s.buf[s.pos]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			break
		}
		s.pos++
	}
	if s.buf[s.pos] != '{' {
		return Trajectory{}, s.syntax("invalid character %q, want the '{' of a trajectory object", s.buf[s.pos])
	}
	present, id, err := s.members()
	if err != nil {
		return Trajectory{}, err
	}
	if !present || len(s.ends) == 0 {
		return Trajectory{}, &InvalidError{"trajectory is empty"}
	}
	pts := make([]geo.Point, len(s.ends))
	from := 0
	for i, end := range s.ends {
		c := s.coords[from:end]
		switch {
		case len(c) != 2 && len(c) != 3:
			return Trajectory{}, &InvalidError{fmt.Sprintf("point %d has %d coordinates, want [x,y] or [x,y,t]", i, len(c))}
		case c[0] != c[0] || c[1] != c[1] || len(c) == 3 && c[2] != c[2]:
			return Trajectory{}, &InvalidError{fmt.Sprintf("point %d has a null coordinate", i)}
		case len(c) == 2:
			pts[i] = geo.Point{X: c[0], Y: c[1], T: float64(i)}
		default:
			pts[i] = geo.Point{X: c[0], Y: c[1], T: c[2]}
		}
		from = end
	}
	return Trajectory{ID: id, Points: pts}, nil
}

// members parses the record object whose '{' is at pos. The value of its
// "points" key is left in coords and ends, the last one winning, and
// present says whether there was one. In the stream grammar an integer
// "id" is returned and any other key skipped; in the strict grammar every
// other key is an unknown field.
func (s *Scanner) members() (present bool, id int, err error) {
	s.pos++
	s.depth++
	s.coords, s.ends = s.coords[:0], s.ends[:0]
	c, err := s.token()
	if err == nil && c == '}' {
		s.pos++
		s.depth--
		return false, 0, nil
	}
	for done := false; err == nil && !done; {
		var name []byte
		if name, err = s.key(c); err != nil {
			break
		}
		isPoints := bytes.EqualFold(name, pointsKey)
		isID := !s.strict && bytes.EqualFold(name, idKey)
		if !isPoints && s.strict {
			s.fail(s.syntax("unknown field %s", s.buf[s.mark:s.pos]))
		}
		if c, err = s.colon(); err != nil {
			break
		}
		switch {
		case isPoints:
			present = true
			err = s.points(c)
		case isID:
			if err = s.skip(c); err == nil && (c == '-' || '0' <= c && c <= '9') {
				if n, aerr := strconv.Atoi(string(s.buf[s.mark:s.pos])); aerr == nil {
					id = n
				}
			}
		default:
			err = s.skip(c)
		}
		if err == nil {
			c, done, err = s.sep('}')
		}
	}
	if err != nil {
		return false, 0, err
	}
	s.depth--
	return present, id, nil
}

// key consumes the key string at pos, whose first byte is c, and returns it
// unescaped. The literal itself is left between mark and pos.
func (s *Scanner) key(c byte) ([]byte, error) {
	if c != '"' {
		return nil, s.syntax("invalid character %q, want a key string", c)
	}
	escaped, err := s.str()
	if err != nil {
		return nil, err
	}
	if !escaped {
		return s.buf[s.mark+1 : s.pos-1], nil
	}
	var unquoted string
	if json.Unmarshal(s.buf[s.mark:s.pos], &unquoted) != nil {
		return nil, nil
	}
	return []byte(unquoted), nil
}

// points parses the value of a "points" key, whose first byte is c, into
// coords and ends; null reads as no points.
func (s *Scanner) points(c byte) error {
	s.coords, s.ends = s.coords[:0], s.ends[:0]
	switch c {
	case 'n':
		return s.literal("null")
	case '[':
	default:
		return s.mismatch(c, "invalid character %q, want the '[' of a points array")
	}
	s.pos++
	s.depth++
	c, err := s.token()
	if err != nil {
		return err
	}
	if c == ']' {
		s.pos++
		s.depth--
		return nil
	}
	for done := false; !done; {
		switch c {
		case 'n': // a null point has no coordinates
			err = s.literal("null")
		case '[':
			err = s.point()
		default:
			err = s.mismatch(c, "invalid character %q, want the '[' of a point")
		}
		if err != nil {
			return err
		}
		s.ends = append(s.ends, len(s.coords))
		if c, done, err = s.sep(']'); err != nil {
			return err
		}
	}
	s.depth--
	return nil
}

// point parses the coordinate array whose '[' is at pos onto coords.
func (s *Scanner) point() error {
	s.pos++
	s.depth++
	c, err := s.token()
	if err != nil {
		return err
	}
	if c == ']' {
		s.pos++
		s.depth--
		return nil
	}
	for done := false; !done; {
		var v float64
		switch {
		case c == 'n':
			v, err = math.NaN(), s.literal("null")
		case c == '-' || '0' <= c && c <= '9':
			if err = s.number(); err == nil {
				lit := s.buf[s.mark:s.pos]
				var perr error
				if v, perr = strconv.ParseFloat(string(lit), 64); perr != nil {
					err = s.overflow(lit)
				}
			}
		default:
			err = s.mismatch(c, "invalid character %q, want a coordinate")
		}
		if err != nil {
			return err
		}
		s.coords = append(s.coords, v)
		if c, done, err = s.sep(']'); err != nil {
			return err
		}
	}
	s.depth--
	return nil
}

// overflow reports the number literal lit, just consumed, as outside
// float64's range: at once in the stream grammar, once the value has been
// read in the strict one.
func (s *Scanner) overflow(lit []byte) error {
	err := &SyntaxError{Offset: s.base + int64(s.mark), Msg: fmt.Sprintf("coordinate %s does not fit a float64", lit)}
	if !s.strict {
		return err
	}
	s.fail(err)
	return nil
}

// mismatch handles a value of the wrong JSON type whose first byte is c.
// The stream grammar rejects it on the spot with the message format(c);
// the strict grammar, like encoding/json, keeps that error for when the
// whole value has been read and skips this one.
func (s *Scanner) mismatch(c byte, format string) error {
	err := s.syntax(format, c)
	if !s.strict {
		return err
	}
	s.fail(err)
	return s.skip(c)
}

// fail keeps the first error of the strict grammar's deferred kind.
func (s *Scanner) fail(err error) {
	if s.typeErr == nil {
		s.typeErr = err
	}
}

// decoded copies the points value in coords and ends out over one backing
// array.
func (s *Scanner) decoded() [][]float64 {
	if len(s.ends) == 0 {
		return nil
	}
	flat := append(make([]float64, 0, len(s.coords)), s.coords...)
	pts := make([][]float64, len(s.ends))
	from := 0
	for i, end := range s.ends {
		pts[i] = flat[from:end:end]
		from = end
	}
	return pts
}

// batch parses the strict grammar's top-level value: the envelope object
// whose records are under key.
func (s *Scanner) batch(key []byte) ([][][]float64, error) {
	c, err := s.token()
	if err == io.ErrUnexpectedEOF {
		return nil, io.EOF // an empty body, as encoding/json says it
	}
	if err != nil {
		return nil, err
	}
	if c != '{' {
		if c == 'n' {
			err = s.literal("null")
		} else {
			err = s.mismatch(c, "invalid character %q, want the '{' of the request object")
		}
		if err == nil && c != '[' {
			err = s.endScalar()
		}
		return nil, err
	}
	var recs [][][]float64
	s.pos++
	s.depth++
	c, err = s.token()
	if err == nil && c == '}' {
		s.pos++
		s.depth--
		return nil, nil
	}
	for done := false; err == nil && !done; {
		var name []byte
		if name, err = s.key(c); err != nil {
			break
		}
		isKey := bytes.EqualFold(name, key)
		if !isKey {
			s.fail(s.syntax("unknown field %s", s.buf[s.mark:s.pos]))
		}
		if c, err = s.colon(); err != nil {
			break
		}
		if isKey {
			recs, err = s.records(c, recs)
		} else {
			err = s.skip(c)
		}
		if err == nil {
			c, done, err = s.sep('}')
		}
	}
	if err != nil {
		return nil, err
	}
	s.depth--
	return recs, nil
}

// records parses the array of records whose first byte is c into recs, the
// value an earlier key of the same name left, reusing its elements the way
// encoding/json does: the array's records replace them position by position,
// a null record or one without "points" keeps what is there, and the length
// becomes the array's.
func (s *Scanner) records(c byte, recs [][][]float64) ([][][]float64, error) {
	switch c {
	case 'n':
		return nil, s.literal("null")
	case '[':
	default:
		return recs, s.mismatch(c, "invalid character %q, want the '[' of an array of trajectories")
	}
	s.pos++
	s.depth++
	c, err := s.token()
	if err != nil {
		return nil, err
	}
	if c == ']' {
		s.pos++
		s.depth--
		return recs[:0:0], nil
	}
	n := 0
	for done := false; !done; n++ {
		s.start = s.pos // the records before this one are decoded
		if n < cap(recs) {
			recs = recs[:n+1]
		} else {
			recs = append(recs, nil)
		}
		switch c {
		case 'n':
			err = s.literal("null")
		case '{':
			var present bool
			if present, _, err = s.members(); present && err == nil {
				recs[n] = s.decoded()
			}
		default:
			err = s.mismatch(c, "invalid character %q, want the '{' of a trajectory object")
		}
		if err != nil {
			return nil, err
		}
		if c, done, err = s.sep(']'); err != nil {
			return nil, err
		}
	}
	s.depth--
	return recs[:n], nil
}

// endScalar is the end of a top-level string, number or literal: like
// encoding/json's Decoder, the value is known to have ended only once the
// byte after it, or the end of the input, has been read.
func (s *Scanner) endScalar() error {
	if !s.more() && s.rerr != io.EOF {
		return s.rerr
	}
	return nil
}

// trailing checks that only whitespace follows the top-level value. What
// json.Decoder.Token would read there decides, as it did for the
// reflection decoder, between a read error and trailing data.
func (s *Scanner) trailing() error {
	for s.more() {
		c := s.buf[s.pos]
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			s.pos++
			continue
		}
		trailing := &SyntaxError{Offset: s.base + int64(s.pos), Msg: "trailing data after the JSON value"}
		if c != '{' && c != '[' && c != '}' && c != ']' && c != ',' && c != ':' {
			err := s.skip(c)
			if err == nil {
				err = s.endScalar()
			}
			if err != nil && err == s.rerr {
				return err // reading failed first: the body cap, say
			}
		}
		return trailing
	}
	if s.rerr == io.EOF {
		return nil
	}
	return s.rerr
}

// skip consumes one well-formed JSON value of any type whose first byte is
// c. A number leaves its bounds in mark and pos.
func (s *Scanner) skip(c byte) (err error) {
	s.open = s.open[:0]
	for {
		// a value starts here
		switch {
		case c == '{' || c == '[':
			if s.depth+len(s.open)+1 > scanMaxDepth {
				return s.syntax("exceeded max depth")
			}
			s.open = append(s.open, c)
			s.pos++
			if c, err = s.token(); err != nil {
				return err
			}
			if c == s.open[len(s.open)-1]+2 { // '}' is '{'+2 and ']' is '['+2
				s.pos++
				s.open = s.open[:len(s.open)-1]
				break
			}
			if s.open[len(s.open)-1] == '[' {
				continue
			}
			if c, err = s.skipKey(c); err != nil {
				return err
			}
			continue
		case c == '"':
			_, err = s.str()
		case c == '-' || '0' <= c && c <= '9':
			err = s.number()
		case c == 't':
			err = s.literal("true")
		case c == 'f':
			err = s.literal("false")
		case c == 'n':
			err = s.literal("null")
		default:
			err = s.syntax("invalid character %q, want a value", c)
		}
		if err != nil {
			return err
		}
		// a value ended here: close every container it completes
		for {
			if len(s.open) == 0 {
				return nil
			}
			top := s.open[len(s.open)-1]
			var done bool
			if c, done, err = s.sep(top + 2); err != nil {
				return err
			}
			if !done {
				if top == '{' {
					if c, err = s.skipKey(c); err != nil {
						return err
					}
				}
				break
			}
			s.open = s.open[:len(s.open)-1]
		}
	}
}

// skipKey consumes a member's key, whose first byte is c, and its colon.
func (s *Scanner) skipKey(c byte) (byte, error) {
	if c != '"' {
		return 0, s.syntax("invalid character %q, want a key string", c)
	}
	if _, err := s.str(); err != nil {
		return 0, err
	}
	return s.colon()
}

// colon consumes the ':' after a key and returns the first byte of the
// member's value.
func (s *Scanner) colon() (byte, error) {
	c, err := s.token()
	if err != nil {
		return 0, err
	}
	if c != ':' {
		return 0, s.syntax("invalid character %q after a key, want ':'", c)
	}
	s.pos++
	return s.token()
}

// str consumes the string literal whose opening quote is at pos, leaving
// its bounds in mark and pos, and reports whether it holds an escape.
func (s *Scanner) str() (escaped bool, err error) {
	s.mark = s.pos
	s.pos++
	for s.more() {
		c := s.buf[s.pos]
		s.pos++
		switch {
		case c == '"':
			return escaped, nil
		case c < 0x20:
			s.pos--
			return false, s.syntax("invalid control character %q in a string", c)
		case c == '\\':
			escaped = true
			if !s.more() {
				return false, s.cut()
			}
			c = s.buf[s.pos]
			s.pos++
			switch c {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for range 4 {
					if !s.more() {
						return false, s.cut()
					}
					if h := s.buf[s.pos]; !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return false, s.syntax("invalid character %q in a \\u escape", h)
					}
					s.pos++
				}
			default:
				s.pos--
				return false, s.syntax("invalid escape character %q in a string", c)
			}
		}
	}
	return false, s.cut()
}

// number consumes the number literal at pos — JSON's grammar, so no leading
// zeros, no bare '.', no '+' — leaving its bounds in mark and pos.
func (s *Scanner) number() error {
	s.mark = s.pos
	if s.buf[s.pos] == '-' {
		s.pos++
	}
	switch c := s.peek(); {
	case c == '0':
		s.pos++
	case '1' <= c && c <= '9':
		s.digits()
	default:
		return s.badNumber()
	}
	if s.peek() == '.' {
		s.pos++
		if s.digits() == 0 {
			return s.badNumber()
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.pos++
		if c := s.peek(); c == '+' || c == '-' {
			s.pos++
		}
		if s.digits() == 0 {
			return s.badNumber()
		}
	}
	return nil
}

// peek returns the byte at pos, 0 when the input has ended.
func (s *Scanner) peek() byte {
	if !s.more() {
		return 0
	}
	return s.buf[s.pos]
}

// digits consumes a run of decimal digits and returns its length.
func (s *Scanner) digits() (n int) {
	for {
		i := s.pos
		for i < len(s.buf) && s.buf[i]-'0' <= 9 {
			i++
		}
		n += i - s.pos
		s.pos = i
		if i < len(s.buf) || !s.fill() {
			return n
		}
	}
}

func (s *Scanner) badNumber() error {
	if !s.more() {
		return s.cut()
	}
	return s.syntax("invalid character %q in a number", s.buf[s.pos])
}

// literal consumes the keyword word, whose first byte is at pos.
func (s *Scanner) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if !s.more() {
			return s.cut()
		}
		if s.buf[s.pos] != word[i] {
			return s.syntax("invalid character %q in literal %s", s.buf[s.pos], word)
		}
		s.pos++
	}
	return nil
}
