package traj

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"simsub/internal/geo"
)

// Scanner reads trajectory records from an NDJSON stream: the one decoder
// behind POST /v2/load/stream and ReadNDJSON. It parses straight into
// []geo.Point with no reflection and holds one record at a time, so neither
// its memory nor its time depends on how long the stream is.
//
// The grammar is what encoding/json accepted into
// struct{ Points [][]float64 `json:"points"` } followed by the wire
// boundary's trajectory rules:
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
// Anything else is an error, after which the scanner is stuck: Next keeps
// returning the same error.
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

	pts  []geo.Point // the current record's points; copied out at its end
	open []byte      // skip's stack of open '{' and '['
}

// ErrRecordTooLarge is returned by Scanner.Next for a record longer than the
// scanner's limit.
var ErrRecordTooLarge = errors.New("traj: record exceeds the size limit")

// A SyntaxError reports input that is not a record of the Scanner's grammar:
// malformed JSON, a record that is not an object, a "points" value of the
// wrong JSON type or a coordinate outside float64's range.
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

const (
	keyOther = iota
	keyPoints
	keyID
)

var keyNames = [...][]byte{keyPoints: []byte("points"), keyID: []byte("id")}

// record parses one record, from the whitespace before it to its closing
// brace.
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
	s.pos++
	s.pts = s.pts[:0]
	id, bad := 0, ""
	c, err := s.token()
	if err != nil {
		return Trajectory{}, err
	}
	done := c == '}'
	if done {
		s.pos++
	}
	for !done {
		var key int
		if key, err = s.key(c); err != nil {
			return Trajectory{}, err
		}
		if c, err = s.colon(); err != nil {
			return Trajectory{}, err
		}
		switch key {
		case keyPoints:
			bad, err = s.points(c)
		case keyID:
			if err = s.skip(c); err == nil && (c == '-' || '0' <= c && c <= '9') {
				if n, aerr := strconv.Atoi(string(s.buf[s.mark:s.pos])); aerr == nil {
					id = n
				}
			}
		default:
			err = s.skip(c)
		}
		if err != nil {
			return Trajectory{}, err
		}
		if c, done, err = s.sep('}'); err != nil {
			return Trajectory{}, err
		}
	}
	switch {
	case len(s.pts) == 0:
		return Trajectory{}, &InvalidError{"trajectory is empty"}
	case bad != "":
		return Trajectory{}, &InvalidError{bad}
	}
	return Trajectory{ID: id, Points: append(make([]geo.Point, 0, len(s.pts)), s.pts...)}, nil
}

// key consumes the key string at pos, whose first byte is c, and says which
// member it names.
func (s *Scanner) key(c byte) (int, error) {
	if c != '"' {
		return keyOther, s.syntax("invalid character %q, want a key string", c)
	}
	escaped, err := s.str()
	if err != nil {
		return keyOther, err
	}
	name := s.buf[s.mark+1 : s.pos-1]
	if escaped {
		var unquoted string
		if json.Unmarshal(s.buf[s.mark:s.pos], &unquoted) != nil {
			return keyOther, nil
		}
		name = []byte(unquoted)
	}
	for k := keyPoints; k < len(keyNames); k++ {
		if bytes.EqualFold(name, keyNames[k]) {
			return k, nil
		}
	}
	return keyOther, nil
}

// points parses the value of a "points" member, whose first byte is c, into
// s.pts, and returns the first trajectory rule a point breaks ("" when
// none). A rule broken here only counts if no later "points" member
// replaces this one, so it is not an error yet.
func (s *Scanner) points(c byte) (bad string, err error) {
	s.pts = s.pts[:0]
	if c == 'n' {
		return "", s.literal("null")
	}
	if c != '[' {
		return "", s.syntax("invalid character %q, want the '[' of a points array", c)
	}
	s.pos++
	if c, err = s.token(); err != nil {
		return "", err
	}
	if c == ']' {
		s.pos++
		return "", nil
	}
	for done := false; !done; {
		var p geo.Point
		n, null := 0, false
		switch c {
		case 'n':
			err = s.literal("null")
		case '[':
			n, null, err = s.point(&p)
		default:
			err = s.syntax("invalid character %q, want the '[' of a point", c)
		}
		if err != nil {
			return "", err
		}
		i := len(s.pts)
		switch {
		case bad != "":
		case n != 2 && n != 3:
			bad = fmt.Sprintf("point %d has %d coordinates, want [x,y] or [x,y,t]", i, n)
		case null:
			bad = fmt.Sprintf("point %d has a null coordinate", i)
		}
		if n == 2 {
			p.T = float64(i)
		}
		s.pts = append(s.pts, p)
		if c, done, err = s.sep(']'); err != nil {
			return "", err
		}
	}
	return bad, nil
}

// point parses the coordinate array at pos into p and returns how many
// coordinates it holds and whether any of them is null.
func (s *Scanner) point(p *geo.Point) (n int, null bool, err error) {
	s.pos++
	c, err := s.token()
	if err != nil {
		return 0, false, err
	}
	if c == ']' {
		s.pos++
		return 0, false, nil
	}
	for done := false; !done; n++ {
		var v float64
		switch {
		case c == 'n':
			null = true
			err = s.literal("null")
		case c == '-' || '0' <= c && c <= '9':
			if err = s.number(); err == nil {
				lit := s.buf[s.mark:s.pos]
				if v, err = strconv.ParseFloat(string(lit), 64); err != nil {
					s.pos = s.mark
					err = s.syntax("coordinate %s does not fit a float64", lit)
				}
			}
		default:
			err = s.syntax("invalid character %q, want a coordinate", c)
		}
		if err != nil {
			return 0, false, err
		}
		switch n {
		case 0:
			p.X = v
		case 1:
			p.Y = v
		case 2:
			p.T = v
		}
		if c, done, err = s.sep(']'); err != nil {
			return 0, false, err
		}
	}
	return n, null, nil
}

// skip consumes one well-formed JSON value of any type whose first byte is
// c. A number leaves its bounds in mark and pos.
func (s *Scanner) skip(c byte) (err error) {
	s.open = s.open[:0]
	for {
		// a value starts here
		switch {
		case c == '{' || c == '[':
			// the record itself is one level of nesting
			if len(s.open)+2 > scanMaxDepth {
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
