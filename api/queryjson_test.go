package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/iotest"
)

// specialFloats are the values a fuzzed float draws when its selector byte
// is below 128: the edges of encoding/json's float rule (−0, subnormals,
// the 1e-6 and 1e21 switches to exponent form, MaxFloat64) and the values
// JSON cannot express.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, 2.225073858507201e-308, 1e-7, 1e-6, 9.999999e-7,
	1e21, 1e20, math.MaxFloat64, -math.MaxFloat64, 0.1, 1.5, 123456.789,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// specialStrings are what a fuzzed string draws when its selector byte is
// 240 or more: HTML-escaped characters, invalid UTF-8 and the line
// separators encoding/json escapes.
var specialStrings = []string{"<>&", "\xff\xfe", "a\u2028b", "\u2029", "é\"\\\n", "\x00\x1f"}

// fuzzGen draws a response's fields from fuzz bytes; an exhausted input
// reads as zeros.
type fuzzGen struct{ b []byte }

func (g *fuzzGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *fuzzGen) bits() uint64 {
	var w [8]byte
	n := copy(w[:], g.b)
	g.b = g.b[n:]
	return binary.LittleEndian.Uint64(w[:])
}

func (g *fuzzGen) float() float64 {
	if sel := g.byte(); sel < 128 {
		return specialFloats[int(sel)%len(specialFloats)]
	}
	return math.Float64frombits(g.bits())
}

func (g *fuzzGen) int() int {
	if sel := g.byte(); sel < 200 {
		return int(sel) - 100
	}
	return int(int64(g.bits()))
}

func (g *fuzzGen) str() string {
	sel := g.byte()
	if sel >= 240 {
		return specialStrings[int(sel-240)%len(specialStrings)]
	}
	n := min(int(sel%12), len(g.b))
	s := string(g.b[:n])
	g.b = g.b[n:]
	return s
}

// responseFrom builds a QueryResponse from fuzz bytes: nil, empty or short
// result and match lists, any float64 bits, and the rare error, partial
// and degraded members with arbitrary strings.
func responseFrom(data []byte) *QueryResponse {
	g := &fuzzGen{b: data}
	r := &QueryResponse{TookMS: g.float()}
	if n := int(g.byte() % 5); n > 0 {
		r.Results = make([]QueryResult, n-1)
	}
	for i := range r.Results {
		res := &r.Results[i]
		if n := int(g.byte() % 6); n > 0 {
			res.Matches = make([]Match, n-1)
		}
		for j := range res.Matches {
			res.Matches[j] = Match{TrajID: g.int(), Start: g.int(), End: g.int(), Dist: g.float(), Sim: g.float(), Explored: g.int()}
		}
		res.Total, res.Cached, res.TookMS = g.int(), g.byte()&1 == 1, g.float()
		flags := g.byte()
		if flags&1 != 0 {
			res.Error = &Error{Code: Code(g.str()), Message: g.str(), RetryAfterMS: g.int()}
		}
		if flags&2 != 0 {
			res.Partial = &Partial{NodesTotal: g.int(), NodesFailed: g.int()}
			if flags&8 != 0 {
				res.Partial.Failures = []NodeFailure{{Node: g.str(), Err: Error{Code: Code(g.str()), Message: g.str()}}}
			}
		}
		if flags&4 != 0 {
			res.Degraded = &Degraded{Reason: g.str(), From: g.str(), To: g.str()}
		}
	}
	return r
}

// nonFinite reports whether r holds a float JSON cannot express.
func nonFinite(r *QueryResponse) bool {
	bad := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	if bad(r.TookMS) {
		return true
	}
	for _, res := range r.Results {
		if bad(res.TookMS) {
			return true
		}
		for _, m := range res.Matches {
			if bad(m.Dist) || bad(m.Sim) {
				return true
			}
		}
	}
	return false
}

// checkDecode holds ReadQueryResponse to json.Decoder on body: the same
// error-or-not and the same value, float bits included.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var want, got QueryResponse
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	gotErr := ReadQueryResponse(bytes.NewReader(body), &got)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: ReadQueryResponse error %v, json.Decoder error %v", body, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: ReadQueryResponse read\n%+v\njson.Decoder read\n%+v", body, got, want)
	}
	gb, gerr := json.Marshal(got)
	wb, werr := json.Marshal(want)
	if gerr != nil || werr != nil || !bytes.Equal(gb, wb) {
		t.Fatalf("body %q: decoded values differ in their bits:\n%s\n%s", body, gb, wb)
	}
}

// canonicalBody is a response as the front end writes it, trailing newline
// included.
func canonicalBody(t testing.TB, r *QueryResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzQueryResponse holds the query-response codec to encoding/json. On a
// response built from shape, AppendJSON writes json.Encoder.Encode's bytes
// without the newline, and both refuse a NaN or ±Inf; what it writes
// decodes as encoding/json decodes it, through the fast path whenever no
// error, partial or degraded member is set. On arbitrary body bytes,
// ReadQueryResponse returns json.Decoder's value and error-or-not.
func FuzzQueryResponse(f *testing.F) {
	plain := &QueryResponse{
		Results: []QueryResult{{
			Matches: []Match{{TrajID: 3, Start: 1, End: 4, Dist: 0.25, Sim: 0.8, Explored: 12}, {TrajID: 0, End: 2, Dist: 1e-7, Sim: 1e21}},
			Total:   7, Cached: true, TookMS: 0.41,
		}, {Matches: []Match{}}, {}},
		TookMS: 0.55,
	}
	body := canonicalBody(f, plain)
	f.Add([]byte{}, body)
	f.Add([]byte{0, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 7}, []byte(`{"results":null,"took_ms":0}`))
	f.Add([]byte{200, 1, 2, 3}, []byte(`{"results":[],"took_ms":-0}trailing garbage`))
	for i := range specialFloats {
		// one match whose dist draws special float i, whose sim draws the
		// next, with every member set
		f.Add([]byte{byte(i), 2, 2, 1, 2, 3, byte(i), byte(i + 1), 4, 5, 1, 6, 15, 240, 241, 7, 8, 9, 10, 242, 243, 244, 245, 246, 247}, body)
	}
	for _, s := range []string{
		` {"results":null,"took_ms":0}`,
		`{"results":null, "took_ms":0}`,
		`{"took_ms":1,"results":null}`,
		`{"Results":null,"TOOK_MS":2}`,
		`{"results":null,"took_ms":1,"took_ms":2}`,
		`{"results":[{"matches":null,"total":1,"cached":false,"error":{"code":"timeout","message":"<>"},"took_ms":1}],"took_ms":1}`,
		`{"results":[{"matches":[{"traj_id":1.0,"start":0,"end":0,"dist":0,"sim":0,"explored":0}],"total":0,"cached":false,"took_ms":0}],"took_ms":0}`,
		`{"results":[{"matches":[{"traj_id":9223372036854775808,"start":0,"end":0,"dist":0,"sim":0,"explored":0}],"total":0,"cached":false,"took_ms":0}],"took_ms":0}`,
		`{"results":[{"matches":[{"traj_id":-9223372036854775808,"start":01,"end":0,"dist":0,"sim":0,"explored":0}],"total":0,"cached":false,"took_ms":0}],"took_ms":0}`,
		`{"results":[{"matches":[],"total":-0,"cached":true,"took_ms":1e400}],"took_ms":0}`,
		`{"results":[{"matches":[],"total":0,"cached":true,"took_ms":1E-400}],"took_ms":.5}`,
		`{"results":[{"matches":[],"total":0,"cached":true,"took_ms":1.}],"took_ms":-}`,
		`{"results":[{"matches":[],"total":0,"cached":nul,"took_ms":1}],"took_ms":1}`,
		`{"results":[{"matches":[],"total":0,"cached":false,"took_ms":1}{"took_ms":1}`,
		`{"results":[{"matches":[{}],"total":0,"cached":false,"took_ms":1}],"took_ms":1}`,
		`{"results":[{"matches":[]],"total":0,"cached":false,"took_ms":1}],"took_ms":1}`,
		`{"results":[{"matches":[],"total":0,"cached":false,"took_ms":1}],"took_ms":1`,
		`null`, ``, `{}`, `[]`,
	} {
		f.Add([]byte{}, []byte(s))
	}
	f.Fuzz(func(t *testing.T, shape, body []byte) {
		r := responseFrom(shape)
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(r)
		const prefix = "prefix"
		got, err := r.AppendJSON([]byte(prefix))
		if (err != nil) != (wantErr != nil) || (err != nil) != nonFinite(r) {
			t.Fatalf("%+v: AppendJSON error %v, json.Encoder error %v", r, err, wantErr)
		}
		if err != nil {
			if string(got) != prefix {
				t.Fatalf("AppendJSON changed dst on error: %q", got)
			}
		} else {
			got = got[len(prefix):]
			if !bytes.Equal(got, bytes.TrimSuffix(want.Bytes(), []byte("\n"))) {
				t.Fatalf("AppendJSON wrote\n%s\njson.Encoder wrote\n%s", got, want.Bytes())
			}
			checkDecode(t, got)
			checkDecode(t, want.Bytes())
			if _, ok := parseQueryResponse(want.Bytes()); ok == rareMembers(r) {
				t.Fatalf("fast path took=%v a response with rare members=%v:\n%s", ok, rareMembers(r), want.Bytes())
			}
		}
		checkDecode(t, body)
	})
}

// rareMembers reports whether a result carries an error, partial or
// degraded member, the ones the fast decoder leaves to encoding/json.
func rareMembers(r *QueryResponse) bool {
	for _, res := range r.Results {
		if res.Error != nil || res.Partial != nil || res.Degraded != nil {
			return true
		}
	}
	return false
}

// answerK50 is a one-spec answer of 50 matches, the largest k the serving
// benchmark asks for.
func answerK50() *QueryResponse {
	ms := make([]Match, 50)
	for i := range ms {
		d := 0.37 * float64(i+1) / 3
		ms[i] = Match{TrajID: 1000 + 37*i, Start: i % 7, End: i%7 + 11, Dist: d, Sim: 1 / (1 + d), Explored: 64 + i}
	}
	return &QueryResponse{Results: []QueryResult{{Matches: ms, Total: 50, TookMS: 1.234}}, TookMS: 1.301}
}

// TestQueryResponseFastPath fails if the codec silently stops taking its
// own bytes: a k = 50 answer encodes with no allocation into a buffer with
// room, and the bytes the front end writes (newline included) decode
// through the fast path, not encoding/json: the parse allocates the result
// and match lists only, and the read far less than encoding/json.
func TestQueryResponseFastPath(t *testing.T) {
	r := answerK50()
	wire := canonicalBody(t, r)
	if _, ok := parseQueryResponse(wire); !ok {
		t.Fatalf("the fast path refused AppendJSON's bytes:\n%s", wire)
	}
	buf := make([]byte, 0, 2*len(wire))
	if n := testing.AllocsPerRun(50, func() { buf, _ = r.AppendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("AppendJSON of a k=50 answer allocated %v times, want 0", n)
	}
	if !bytes.Equal(append(buf, '\n'), wire) {
		t.Fatalf("AppendJSON wrote\n%s\nwant\n%s", buf, wire)
	}
	if n := testing.AllocsPerRun(50, func() { _, _ = parseQueryResponse(wire) }); n > 2 {
		t.Fatalf("parsing a k=50 answer allocated %v times, want at most 2", n)
	}
	var rd bytes.Reader
	read := func() {
		rd.Reset(wire)
		var v QueryResponse
		if err := ReadQueryResponse(&rd, &v); err != nil {
			t.Fatal(err)
		}
	}
	fast := testing.AllocsPerRun(50, read)
	reflective := testing.AllocsPerRun(50, func() {
		var v QueryResponse
		_ = json.NewDecoder(bytes.NewReader(wire)).Decode(&v)
	})
	// the value, which the fallback's interface makes escape, and its two
	// lists; the race detector's sync.Pool drops some buffers, so the bound
	// is loose
	if fast >= reflective/2 {
		t.Fatalf("ReadQueryResponse of a k=50 answer allocated %v times, encoding/json %v", fast, reflective)
	}
}

// TestReadQueryResponseReadError: a body whose read fails decodes as
// json.Decoder decodes it: a value read whole before the failure is
// answered, a value cut short by it is the read error.
func TestReadQueryResponseReadError(t *testing.T) {
	boom := errors.New("connection reset")
	wire := canonicalBody(t, answerK50())
	for _, n := range []int{len(wire), len(wire) / 2} {
		body := func() io.Reader { return io.MultiReader(bytes.NewReader(wire[:n]), iotest.ErrReader(boom)) }
		var got, want QueryResponse
		gotErr := ReadQueryResponse(body(), &got)
		wantErr := json.NewDecoder(body()).Decode(&want)
		if !errors.Is(gotErr, wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d of %d bytes: read %v, %v; json.Decoder read %v, %v", n, len(wire), got, gotErr, want, wantErr)
		}
	}
}

// TestReadQueryResponseConcurrent: decoders running at once share the body
// buffer pool, and each still reads its own body.
func TestReadQueryResponseConcurrent(t *testing.T) {
	bodies := make([][]byte, 8)
	wants := make([]*QueryResponse, len(bodies))
	for i := range bodies {
		r := answerK50()
		r.Results[0].Matches = r.Results[0].Matches[:5*i+1]
		r.Results[0].Total = i
		wants[i], bodies[i] = r, canonicalBody(t, r)
	}
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				var got QueryResponse
				if err := ReadQueryResponse(bytes.NewReader(bodies[i]), &got); err != nil || !reflect.DeepEqual(&got, wants[i]) {
					t.Errorf("body %d read as %+v, %v", i, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkQueryResponse(b *testing.B) {
	r := answerK50()
	wire := canonicalBody(b, r)
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			buf, _ = r.AppendJSON(buf[:0])
		}
	})
	b.Run("encode/reflection", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for b.Loop() {
			buf.Reset()
			_ = json.NewEncoder(&buf).Encode(r)
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var v QueryResponse
			_ = ReadQueryResponse(bytes.NewReader(wire), &v)
		}
	})
	b.Run("decode/reflection", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var v QueryResponse
			_ = json.NewDecoder(bytes.NewReader(wire)).Decode(&v)
		}
	})
}
