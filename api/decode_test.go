package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"simsub/internal/dataset"
	"simsub/internal/traj"
)

// reflectLoadRequest is LoadRequest as encoding/json decoded it by
// reflection, before the trajectory scanner decoded it: the oracle of
// FuzzLoadBody and the "reflection" row of BenchmarkLoadDecode.
type reflectLoadRequest struct {
	Trajectories []struct {
		Points [][]float64 `json:"points"`
	} `json:"trajectories"`
}

// loadOutcome is what a decoder made of a POST /v2/load body, down to what
// the front end would answer: the error code (too_large when reading ran
// into the body cap, invalid_argument otherwise) or the trajectories that
// would be committed.
type loadOutcome struct {
	code Code
	err  error
	ts   []traj.Trajectory
}

func outcomeOf(wts []Trajectory, err error) loadOutcome {
	if err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			return loadOutcome{code: CodeTooLarge, err: err}
		}
		return loadOutcome{code: CodeInvalidArgument, err: err}
	}
	ts, aerr := ToTrajs(wts)
	if aerr != nil {
		return loadOutcome{code: aerr.Code, err: aerr}
	}
	return loadOutcome{ts: ts}
}

// scanned is the served decoder: ReadLoadRequest, then ToTrajs.
func scanned(r io.Reader) loadOutcome {
	req, err := ReadLoadRequest(r)
	return outcomeOf(req.Trajectories, err)
}

// reflected is the decoder it replaced: json.Decoder with
// DisallowUnknownFields, one value, nothing but whitespace after it (the
// old server.Decode), then ToTrajs.
func reflected(r io.Reader) loadOutcome {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req reflectLoadRequest
	err := dec.Decode(&req)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		return outcomeOf(nil, err)
	}
	wts := make([]Trajectory, len(req.Trajectories))
	for i, t := range req.Trajectories {
		wts[i].Points = t.Points
	}
	return outcomeOf(wts, nil)
}

// nullCoordinate reports whether the trajectories encoding/json committed
// from body hold a coordinate that was a JSON null: encoding/json leaves a
// float64 alone on null, so it read such a coordinate as 0, or as whatever
// an earlier value of a repeated key had there. ReadLoadRequest rejects it;
// that is the one difference FuzzLoadBody allows.
func nullCoordinate(body []byte) bool {
	var shadow struct {
		Trajectories []struct{ Points [][]*float64 }
	}
	if json.Unmarshal(body, &shadow) != nil {
		return false
	}
	for _, t := range shadow.Trajectories {
		for _, p := range t.Points {
			for _, c := range p {
				if c == nil {
					return true
				}
			}
		}
	}
	return false
}

// capped holds r to limit bytes the way the front end holds a body.
func capped(r io.Reader, limit int64) io.Reader {
	return http.MaxBytesReader(nil, io.NopCloser(r), limit)
}

// FuzzLoadBody holds POST /v2/load's decoder to the reflection decoder it
// replaced: both accept or both reject a body, with the same error code,
// and when both accept, the trajectories are bit-equal. The one allowed
// difference is a null coordinate, which only the new decoder rejects.
// limit caps the body like the front end's MaxBytesReader (0: no cap), so
// that what comes first, a read error or a decode error, is judged too.
func FuzzLoadBody(f *testing.F) {
	corpus := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 3, Seed: 7, MinLen: 2, MaxLen: 5})
	written, err := json.Marshal(LoadRequest{Trajectories: []Trajectory{FromTraj(corpus[0]), FromTraj(corpus[1]), FromTraj(corpus[2])}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written, uint16(0))
	f.Add(written, uint16(len(written)/2))
	f.Add(written, uint16(len(written)))
	for _, seed := range []string{
		"", " \n", "null", " null ", "nul", `"trajectories"`, "[]", "1", "true",
		`{}`, `{"trajectories":null}`, `{"trajectories":[]}`, `{"trajectories":{}}`, `{"trajectories":[1]}`,
		`{"trajectories":[null]}`, `{"trajectories":[{}]}`, `{"trajectories":[{"points":null}]}`,
		`{"trajectories":[{"points":[[1,2],[3,4,5]]}]}`,
		`{"trajectories":[{"points":[[1,2]]},{"points":[[3,4]],"points":[[5,6,7]]}]}`,
		// a duplicate "trajectories" decodes into what the first one left
		`{"trajectories":[{"points":[[1,2]]}],"trajectories":[{"points":[[3,4]]}]}`,
		`{"trajectories":[{"points":[[1,2]]},{"points":[[3,4]]}],"trajectories":[{},null]}`,
		`{"trajectories":[{"points":[[1,2]]}],"trajectories":[]}`,
		`{"trajectories":[{"points":[[1,2]]}],"trajectories":null,"trajectories":[{}]}`,
		`{"trajectories":[{"points":[[1,2]]},{"points":[[3,4]]}],"trajectories":[{}],"trajectories":[{},{}]}`,
		// unknown fields, "id" included
		`{"trajectories":[{"id":1,"points":[[1,2]]}]}`, `{"ids":[1],"trajectories":[{"points":[[1,2]]}]}`,
		`{"trajectories":[{"points":[[1,2]],"meta":{"a":[1,{"b":null}]}}]}`,
		// numbers
		`{"trajectories":[{"points":[[1e400,2]]}]}`, `{"trajectories":[{"points":[[1,-1e400]]}]}`,
		`{"trajectories":[{"points":[[1e-400,-0]]}]}`, `{"trajectories":[{"points":[[01,2]]}]}`,
		`{"trajectories":[{"points":[["1",2]]}]}`, `{"trajectories":[{"points":[[true,2]]}]}`,
		// arity and emptiness, the batch's validation
		`{"trajectories":[{"points":[[1]]}]}`, `{"trajectories":[{"points":[[1,2,3,4]]}]}`,
		`{"trajectories":[{"points":[null]}]}`, `{"trajectories":[{"points":[]}]}`,
		// null coordinates
		`{"trajectories":[{"points":[[null,2]]}]}`, `{"trajectories":[{"points":[[1,2]]}],"trajectories":[{"points":[[null,2]]}]}`,
		`{"trajectories":[{"points":[[null,2]],"points":[[1,2]]}]}`,
		// escaped and case-folded keys
		`{"Trajectories":[{"POINTS":[[1,2]]}]}`, `{"\u0074rajectories":[{"p\u006fints":[[1,2]]}]}`,
		`{"trajectorieſ":[{"pointſ":[[1,2]]}]}`, `{"trajectories ":[]}`, "{\"points\xff\":[[1,2]]}",
		// what follows the value
		`{"trajectories":[{"points":[[1,2]]}]} `, `{"trajectories":[{"points":[[1,2]]}]}x`,
		`{"trajectories":[{"points":[[1,2]]}]}{}`, `{"trajectories":[{"points":[[1,2]]}]}]`,
		`{"trajectories":[{"points":[[1,2]]}]} "s"`, `{"trajectories":[{"points":[[1,2]]}]} 12`,
		`{"trajectories":[{"points":[[1,2]]}]} tru`, `{"trajectories":[{"points":[[1,2]],}]}`,
		`{"trajectories":[{"points":[[1,2]]}]`, `{"trajectories":[{"points":[[1,2]]}],"a":[[[[[`,
	} {
		f.Add([]byte(seed), uint16(0))
		f.Add([]byte(seed), uint16(max(len(seed)-1, 1)))
	}
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		n := int64(limit)
		if n == 0 {
			n = int64(len(body)) + 1
		}
		old := reflected(capped(bytes.NewReader(body), n))
		for name, r := range map[string]io.Reader{
			"whole":   bytes.NewReader(body),
			"dribble": iotest.OneByteReader(bytes.NewReader(body)),
		} {
			got := scanned(capped(r, n))
			switch {
			case old.code == "" && got.code != "":
				if !nullCoordinate(body) || !strings.Contains(got.err.Error(), "null coordinate") {
					t.Fatalf("%s: the reflection decoder accepted %d trajectories, the scanner failed: %v", name, len(old.ts), got.err)
				}
			case old.code != got.code:
				t.Fatalf("%s: the reflection decoder answered %q (%v), the scanner %q (%v)", name, old.code, old.err, got.code, got.err)
			case old.code == "":
				if len(got.ts) != len(old.ts) {
					t.Fatalf("%s: the scanner read %d trajectories, the reflection decoder %d", name, len(got.ts), len(old.ts))
				}
				for i := range got.ts {
					if !bitEqual(got.ts[i], old.ts[i]) {
						t.Fatalf("%s: trajectory %d: the scanner read %v, the reflection decoder %v", name, i, got.ts[i].Points, old.ts[i].Points)
					}
				}
			}
		}
	})
}

func bitEqual(a, b traj.Trajectory) bool {
	if len(a.Points) != len(b.Points) {
		return false
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) ||
			math.Float64bits(p.T) != math.Float64bits(q.T) {
			return false
		}
	}
	return true
}

// loadBody marshals n Porto-like trajectories of lengths in [minLen, maxLen]
// the way client.Load sends them.
func loadBody(tb testing.TB, n, minLen, maxLen int) []byte {
	ts := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: n, Seed: 1, MinLen: minLen, MaxLen: maxLen})
	wts := make([]Trajectory, len(ts))
	for i, t := range ts {
		wts[i] = FromTraj(t)
	}
	body, err := json.Marshal(LoadRequest{Trajectories: wts})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// fixedBody is the POST /v2/load body of loadBody's trajectories with every
// coordinate at 6 decimals, the format of real GPS dumps, instead of the
// shortest form the client writes.
func fixedBody(n int) []byte {
	ts := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: n, Seed: 1})
	body := []byte(`{"trajectories":[`)
	for i, t := range ts {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"points":[`...)
		for j, p := range t.Points {
			if j > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(append(body, '['), p.X, 'f', 6, 64)
			body = strconv.AppendFloat(append(body, ','), p.Y, 'f', 6, 64)
			body = strconv.AppendFloat(append(body, ','), p.T, 'f', 6, 64)
			body = append(body, ']')
		}
		body = append(body, "]}"...)
	}
	return append(body, "]}"...)
}

// BenchmarkLoadDecode decodes and validates one POST /v2/load body of 250
// Porto-length trajectories (30 to 90 points, about 15k in all), written in
// shortest form and at 6 decimals: the scanner the front end runs, and the
// reflection decoder it replaced.
func BenchmarkLoadDecode(b *testing.B) {
	for _, body := range []struct {
		name string
		data []byte
	}{{"shortest", loadBody(b, 250, 0, 0)}, {"fixed6", fixedBody(250)}} {
		for _, dec := range []struct {
			name   string
			decode func(io.Reader) loadOutcome
		}{{"scanner", scanned}, {"reflection", reflected}} {
			b.Run(body.name+"/"+dec.name, func(b *testing.B) {
				b.SetBytes(int64(len(body.data)))
				b.ReportAllocs()
				for b.Loop() {
					if out := dec.decode(bytes.NewReader(body.data)); out.err != nil {
						b.Fatal(out.err)
					}
				}
			})
		}
	}
}

// TestLoadDecodeAllocsPerTrajectory pins ReadLoadRequest's allocations to
// the trajectory, not the point: ten times longer trajectories may not
// cost more than a few allocations more in all, so the one-slice-per-point
// decoding of reflection cannot come back unnoticed.
func TestLoadDecodeAllocsPerTrajectory(t *testing.T) {
	const n = 100
	allocs := func(length int) float64 {
		body := loadBody(t, n, length, length)
		return testing.AllocsPerRun(20, func() {
			if _, err := ReadLoadRequest(bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(20), allocs(200)
	if short > 3*n || long > short+n/10 {
		t.Fatalf("%d trajectories of 20 points take %v allocations, of 200 points %v; want at most %d, and at most %d more",
			n, short, long, 3*n, n/10)
	}
}

// TestUnmarshalTrajectory pins what api.Trajectory's own decoder does
// inside the query envelopes: what encoding/json did, but one backing
// array, unknown keys rejected and a null coordinate an error.
func TestUnmarshalTrajectory(t *testing.T) {
	var q Query
	if err := json.Unmarshal([]byte(`{"specs":[{"query":{"points":[[1,2],[3,4,5],[6]]},"k":1}]}`), &q); err != nil {
		t.Fatal(err)
	}
	pts := q.Specs[0].Query.Points
	next := func(i int) uintptr { return uintptr(unsafe.Pointer(&pts[i][0])) + uintptr(8*len(pts[i])) }
	if len(pts) != 3 || len(pts[0]) != 2 || len(pts[1]) != 3 || len(pts[2]) != 1 || pts[1][2] != 5 ||
		next(0) != uintptr(unsafe.Pointer(&pts[1][0])) || next(1) != uintptr(unsafe.Pointer(&pts[2][0])) {
		t.Fatalf("decoded %v; want the points as written, over one backing array", pts)
	}
	// arity is ToTraj's to judge, in the spec's own lane
	if _, aerr := q.Specs[0].Query.ToTraj(); aerr == nil || !strings.Contains(aerr.Message, "point 2 has 1 coordinates") {
		t.Fatalf("ToTraj: %v, want the arity error", aerr)
	}
	keep := Trajectory{Points: [][]float64{{9, 9}}}
	for _, in := range []string{`null`, `{}`} {
		if err := json.Unmarshal([]byte(in), &keep); err != nil || len(keep.Points) != 1 {
			t.Fatalf("%s: %v, %v; want the trajectory left as it was", in, err, keep.Points)
		}
	}
	for _, in := range []string{
		`{"points":[[null,1]]}`, `{"id":1,"points":[[0,1]]}`, `{"points":[[0,1]],"x":null}`,
		`{"points":[["0",1]]}`, `{"points":[[1e400,1]]}`, `[[0,1]]`, `{"points":[[0,1]]} 1`,
	} {
		var wt Trajectory
		if err := wt.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%s: decoded %v, want an error", in, wt.Points)
		}
	}
	var sq StreamQuery
	dec := json.NewDecoder(strings.NewReader(`{"spec":{"query":{"points":[[0,null]]},"k":1}}`))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sq); err == nil || !strings.Contains(err.Error(), "point 0 has a null coordinate") {
		t.Fatalf("stream spec with a null coordinate: %v", err)
	}
}

// TestLoadBodyDepthLimit holds the /v2/load decoder to encoding/json's
// nesting limit wherever a value is skipped — an unknown field, a value of
// the wrong type, the top level — on both sides of it. The body is cut one
// byte short by its cap, so that a depth error (invalid_argument) and
// reading on into the cap (too_large) tell apart where each decoder
// stopped. (Not fuzz seeds: the fuzzer spends its time minimizing 20 kB
// inputs.)
func TestLoadBodyDepthLimit(t *testing.T) {
	codes := map[Code]int{}
	for _, around := range [][2]string{
		{`{"trajectories":[{"id":`, `}]}`}, {`{"trajectories":[{"points":[[`, `]]}]}`},
		{`{"trajectories":[{"points":[`, `]}]}`}, {`{"trajectories":`, `}`}, {``, ``},
	} {
		for n := 9994; n <= 10000; n++ {
			body := []byte(around[0] + strings.Repeat("[", n) + "1" + strings.Repeat("]", n) + around[1])
			limit := int64(len(body) - 1)
			old, got := reflected(capped(bytes.NewReader(body), limit)), scanned(capped(bytes.NewReader(body), limit))
			if old.code != got.code {
				t.Errorf("%q + %d x [: the reflection decoder answered %q (%v), the scanner %q (%v)", around[0], n, old.code, old.err, got.code, got.err)
			}
			codes[old.code]++
		}
	}
	if codes[CodeTooLarge] == 0 || codes[CodeInvalidArgument] == 0 {
		t.Fatalf("answers %v: the limit is not where this test thinks it is", codes)
	}
}
