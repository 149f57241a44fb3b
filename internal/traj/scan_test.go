package traj_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"simsub/api"
	"simsub/internal/geo"
	"simsub/internal/traj"
)

// reflectTrajectory is api.Trajectory as encoding/json decoded it by
// reflection, before api.Trajectory got the Scanner's strict grammar as its
// UnmarshalJSON: the oracles below must not run the code they judge.
type reflectTrajectory struct {
	Points [][]float64 `json:"points"`
}

// reference decodes an NDJSON stream the way POST /v2/load/stream did before
// the Scanner existed — json.Decoder into reflectTrajectory, then ToTraj — and
// returns the records accepted before the first failure and whether there
// was one. It is the oracle of FuzzTrajectoryScanner; the one rule on which
// the Scanner deliberately disagrees with encoding/json is modelled here
// and named in scannerDivergences.
func reference(data []byte) (accepted [][]geo.Point, failed bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			return accepted, false
		} else if err != nil {
			return accepted, true
		}
		var wt reflectTrajectory
		if err := json.Unmarshal(raw, &wt); err != nil {
			return accepted, true
		}
		t, aerr := api.Trajectory(wt).ToTraj()
		if aerr != nil || hasNullCoordinate(raw) {
			return accepted, true
		}
		accepted = append(accepted, t.Points)
	}
}

// hasNullCoordinate reports whether the record's final "points" value holds
// a null where a coordinate belongs. encoding/json leaves a float64 alone
// on null, so the reflection decoder read such a coordinate as 0 — or, when
// the key repeats, as whatever the earlier value had in that position; the
// Scanner rejects the record.
func hasNullCoordinate(raw []byte) bool {
	var shadow struct{ Points [][]*float64 }
	if json.Unmarshal(raw, &shadow) != nil {
		return false
	}
	for _, p := range shadow.Points {
		for _, c := range p {
			if c == nil {
				return true
			}
		}
	}
	return false
}

// scannerDivergences are the inputs on which the Scanner and the reflection
// decoder deliberately disagree, with what each does. Each is also a fuzz
// seed, and the oracle above models the rule behind them, so they are
// checked on every run rather than skipped.
var scannerDivergences = []struct {
	name, input string
	old         []geo.Point // what json.Decoder + ToTraj made of it
	msg         string      // the Scanner's InvalidError
}{
	{
		name:  "null coordinate read as zero",
		input: `{"points":[[null,1],[2,null,3]]}`,
		old:   []geo.Point{{X: 0, Y: 1, T: 0}, {X: 2, Y: 0, T: 3}},
		msg:   "point 0 has a null coordinate",
	},
	{
		name:  "null coordinate of a repeated key read as the earlier value",
		input: `{"points":[[5,6]],"points":[[null,7]]}`,
		old:   []geo.Point{{X: 5, Y: 7, T: 0}},
		msg:   "point 0 has a null coordinate",
	},
}

func TestScannerDivergences(t *testing.T) {
	for _, d := range scannerDivergences {
		var wt reflectTrajectory
		if err := json.NewDecoder(strings.NewReader(d.input)).Decode(&wt); err != nil {
			t.Fatalf("%s: json.Decoder: %v", d.name, err)
		}
		old, aerr := api.Trajectory(wt).ToTraj()
		if aerr != nil || !samePoints(old.Points, d.old) {
			t.Errorf("%s: the reflection decoder read %v (%v), the row says %v", d.name, old.Points, aerr, d.old)
		}
		_, err := traj.NewScanner(strings.NewReader(d.input), 1<<20).Next()
		var inv *traj.InvalidError
		if !errors.As(err, &inv) || inv.Msg != d.msg {
			t.Errorf("%s: Scanner returned %v, want InvalidError %q", d.name, err, d.msg)
		}
		if got, failed := reference([]byte(d.input)); len(got) != 0 || !failed {
			t.Errorf("%s: the oracle does not model the divergence", d.name)
		}
	}
}

func samePoints(a, b []geo.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) ||
			math.Float64bits(a[i].T) != math.Float64bits(b[i].T) {
			return false
		}
	}
	return true
}

// scanAll drains a Scanner.
func scanAll(sc *traj.Scanner) (accepted [][]geo.Point, err error) {
	for {
		t, err := sc.Next()
		if err == io.EOF {
			return accepted, nil
		}
		if err != nil {
			return accepted, err
		}
		accepted = append(accepted, t.Points)
	}
}

// badRecords are the records of the server's TestLoadStreamBadRecords table
// (internal/server/stream_load_test.go); keep the two in step.
var badRecords = []string{
	`this is not json`,
	`{"points":[[0,0],[1,1]]`,
	`{"points":[]}`,
	`{}`,
	`null`,
	`[[0,0],[1,1]]`,
	`{"points":[[0,0],[1]]}`,
	`{"points":[[0,0,0,0]]}`,
	`{"points":[[0,0],null]}`,
	`{"points":[[0,null]]}`,
	`{"points":[[0,"1"]]}`,
	`{"points":[[0,1e400]]}`,
	`{"points":[[0,01]]}`,
	`{"points":{"0":[0,0]}}`,
	`{"points":[[0,0]],}`,
}

func FuzzTrajectoryScanner(f *testing.F) {
	rng := rand.New(rand.NewSource(24))
	corpus := make([]traj.Trajectory, 3)
	for i := range corpus {
		corpus[i].ID = i
		for j := 0; j < 2+i; j++ {
			corpus[i].Points = append(corpus[i].Points, geo.Point{X: rng.NormFloat64() * 100, Y: rng.Float64(), T: float64(j * 15)})
		}
	}
	var written bytes.Buffer
	if err := traj.WriteNDJSON(&written, corpus); err != nil {
		f.Fatal(err)
	}
	f.Add(written.Bytes())
	for _, bad := range badRecords {
		f.Add([]byte(bad))
		f.Add([]byte(`{"points":[[1,2]]}` + "\n" + bad + "\n"))
	}
	for _, d := range scannerDivergences {
		f.Add([]byte(d.input))
	}
	for _, lit := range numberSeeds {
		f.Add([]byte(`{"points":[[` + lit + `,0],[1,` + lit + `,` + lit + `]]}`))
	}
	for _, seed := range []string{
		"", " \n\t\r ",
		// [x,y] / [x,y,t] mixes; t defaults to the index
		`{"points":[[1,2],[3,4,5],[6,7]]}`,
		` { "points" : [ [ 1 , 2 ] , [ 3 , 4 , 5 ] ] } `,
		`{"points":[[1,2]]}{"points":[[3,4]]}`,
		// duplicate keys: the last value wins, whatever the earlier one broke
		`{"points":[[1,2,3,4]],"points":[[1,2]]}`,
		`{"points":[[1,2]],"points":[]}`,
		`{"points":[[1,2]],"points":null}`,
		`{"points":[[null,2]],"points":[[1,2]]}`,
		`{"points":5,"points":[[1,2]]}`,
		// keys match after unescaping, ignoring case
		`{"POINTS":[[1,2]]}`, `{"Points":[[1,2]],"pOiNtS":[[3,4]]}`,
		`{"\u0070oints":[[1,2]]}`, `{"pointſ":[[1,2]]}`, `{"point\u017f":[[1,2]]}`, `{"\u0049d":9,"points":[[1,2]]}`,
		`{"points ":[[1,2]]}`, "{\"points\xff\":[[1,2]]}", `{"\ud800points":[[1,2]]}`,
		// null where a points array, a point or a coordinate belongs
		`{"points":null}`, `{"points":[null]}`, `{"points":[[1,2],null]}`, `{"points":[[null]]}`,
		// numbers
		`{"points":[[1e400,0]]}`, `{"points":[[-1e400,0]]}`, `{"points":[[1e-400,-0]]}`, `{"points":[[1E+2,0.5e-1]]}`,
		`{"points":[[01,0]]}`, `{"points":[[-01,0]]}`, `{"points":[[1.,0]]}`, `{"points":[[.5,0]]}`, `{"points":[[+1,0]]}`,
		`{"points":[[-,0]]}`, `{"points":[[1e,0]]}`, `{"points":[[0x10,0]]}`, `{"points":[[Infinity,0]]}`, `{"points":[[NaN,0]]}`,
		`{"points":[[123456789012345678901234567890.123456789012345678901234567890,0.1]]}`,
		// any other key's value is skipped, whatever it nests
		`{"id":7,"points":[[1,2]]}`, `{"id":1.5,"points":[[1,2]]}`, `{"id":"x","ID":-3,"points":[[1,2]]}`,
		`{"meta":{"a":[1,{"b":null,"c":[true,false,"s\"\\\/\b\f\n\r\té"]}],"d":{}},"points":[[1,2]],"z":[]}`,
		`{"a":"\x","points":[[1,2]]}`, `{"a":"\u12g4","points":[[1,2]]}`, "{\"a\":\"tab\there\",\"points\":[[1,2]]}",
		`{"a":tru,"points":[[1,2]]}`, `{"a":[1,],"points":[[1,2]]}`, `{"a":{"b"},"points":[[1,2]]}`, `{"a":1e400,"points":[[1,2]]}`,
		`{"a":[[[[{"b":[[[]]]}]]]],"points":[[1,2]]}`,
		// what follows a record
		`{"points":[[1,2]]},{"points":[[3,4]]}`, `{"points":[[1,2]]} x`, `{"points":[[1,2]]}` + "\n" + `{"points":[[1,`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantFail := reference(data)
		// whole, and then a byte at a time through a buffer every record
		// outgrows, so that literals straddle refills
		scanners := map[string]*traj.Scanner{
			"whole":   traj.NewScanner(bytes.NewReader(data), len(data)+1),
			"dribble": traj.NewScannerSize(iotest.OneByteReader(bytes.NewReader(data)), len(data)+1, 4),
		}
		for name, sc := range scanners {
			got, err := scanAll(sc)
			if (err != nil) != wantFail {
				t.Fatalf("%s: Scanner error %v, json.Decoder + ToTraj failed = %v", name, err, wantFail)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: Scanner accepted %d records, json.Decoder + ToTraj %d (err %v)", name, len(got), len(want), err)
			}
			for i := range got {
				if !samePoints(got[i], want[i]) {
					t.Fatalf("%s: record %d: Scanner read %v, json.Decoder + ToTraj %v", name, i, got[i], want[i])
				}
			}
		}
	})
}

// TestScannerDepthLimit holds the Scanner to encoding/json's nesting limit,
// on both sides of it. (Not fuzz seeds: the fuzzer spends its time
// minimizing 20 kB inputs.)
func TestScannerDepthLimit(t *testing.T) {
	for _, n := range []int{9998, 9999, 10000} {
		for _, open := range []string{"[", `{"a":`} {
			closing := map[string]string{"[": "]", `{"a":`: "}"}[open]
			input := `{"a":` + strings.Repeat(open, n) + "1" + strings.Repeat(closing, n) + `,"points":[[1,2]]}`
			want, wantFail := reference([]byte(input))
			got, err := scanAll(traj.NewScanner(strings.NewReader(input), len(input)))
			if (err != nil) != wantFail || len(got) != len(want) {
				t.Errorf("%d x %s: Scanner accepted %d (err %v), json.Decoder %d (failed %v)", n, open, len(got), err, len(want), wantFail)
			}
			if wantFail != (n > 9999) { // the record itself is one level
				t.Errorf("%d x %s: encoding/json's limit is not where this test thinks it is", n, open)
			}
		}
	}
}

// TestScannerRecordCap pins the per-record limit: one record may be as long
// as the limit and no longer, whitespace between records does not count,
// and the stream as a whole may be any length.
func TestScannerRecordCap(t *testing.T) {
	rec := `{"points":[[1,2],[3,4]]}`
	pad := strings.Repeat("\n", 3*len(rec))
	stream := strings.Repeat(pad+rec, 50)
	for _, size := range []int{1, 7, 1 << 16} {
		got, err := scanAll(traj.NewScannerSize(strings.NewReader(stream), len(rec), size))
		if err != nil || len(got) != 50 {
			t.Fatalf("buffer %d: %d records, err %v; want 50 records of exactly the limit", size, len(got), err)
		}
		got, err = scanAll(traj.NewScannerSize(strings.NewReader(stream), len(rec)-1, size))
		if !errors.Is(err, traj.ErrRecordTooLarge) || len(got) != 0 {
			t.Fatalf("buffer %d: %d records, err %v; want ErrRecordTooLarge on the first", size, len(got), err)
		}
	}
	// a body with no newline and no end: the allocation stays at the limit
	endless := io.MultiReader(strings.NewReader(`{"points":[[1,2]],"pad":"`), neverEnding('x'))
	if _, err := traj.NewScanner(endless, 1<<20).Next(); !errors.Is(err, traj.ErrRecordTooLarge) {
		t.Fatalf("endless record: err %v, want ErrRecordTooLarge", err)
	}
}

type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestScannerLongStream runs a corpus much longer than the buffer through
// readers that cut it at every kind of boundary, with one record that
// outgrows the buffer.
func TestScannerLongStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	corpus := make([]traj.Trajectory, 400)
	for i := range corpus {
		n := 1 + rng.Intn(40)
		if i == 200 {
			n = 3000
		}
		corpus[i].ID = i
		for j := 0; j < n; j++ {
			corpus[i].Points = append(corpus[i].Points, geo.Point{X: rng.NormFloat64() * 1e3, Y: rng.NormFloat64() * 1e-3, T: float64(j)})
		}
	}
	var buf bytes.Buffer
	if err := traj.WriteNDJSON(&buf, corpus); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"whole":   bytes.NewReader(buf.Bytes()),
		"halves":  iotest.HalfReader(bytes.NewReader(buf.Bytes())),
		"dataerr": iotest.DataErrReader(bytes.NewReader(buf.Bytes())),
	} {
		sc := traj.NewScannerSize(r, buf.Len(), 512)
		for i, want := range corpus {
			got, err := sc.Next()
			if err != nil || got.ID != want.ID || !samePoints(got.Points, want.Points) {
				t.Fatalf("%s: record %d: %v (err %v)", name, i, got, err)
			}
			if cap(got.Points) != len(got.Points) {
				t.Fatalf("%s: record %d: points have capacity %d for length %d", name, i, cap(got.Points), len(got.Points))
			}
		}
		if _, err := sc.Next(); err != io.EOF {
			t.Fatalf("%s: after the last record: %v, want io.EOF", name, err)
		}
	}
}

// TestScannerErrors pins the error kinds callers tell apart, and that an
// error is final.
func TestScannerErrors(t *testing.T) {
	var syn *traj.SyntaxError
	var inv *traj.InvalidError
	for _, c := range []struct {
		input string
		as    any
		text  string
	}{
		{`{"points":[[0,0],[1]]}`, &inv, "point 1 has 1 coordinates, want [x,y] or [x,y,t]"},
		{`{"points":[[0,0,0,0]]}`, &inv, "point 0 has 4 coordinates, want [x,y] or [x,y,t]"},
		{`{"points":[[0,0],null]}`, &inv, "point 1 has 0 coordinates, want [x,y] or [x,y,t]"},
		{`{"id":3}`, &inv, "trajectory is empty"},
		{`{"points":[[0,0]]} x`, &syn, `invalid character 'x', want the '{' of a trajectory object at offset 19`},
		{`{"points":[[0,1e400]]}`, &syn, "coordinate 1e400 does not fit a float64 at offset 14"},
		{`{"points":[[0,0]]`, nil, "unexpected EOF"},
	} {
		sc := traj.NewScanner(strings.NewReader(c.input), 1<<20)
		var err error
		for err == nil {
			_, err = sc.Next()
		}
		if err.Error() != c.text || c.as != nil && !errors.As(err, c.as) {
			t.Errorf("%s: error %q (%T), want %q", c.input, err, err, c.text)
		}
		if _, again := sc.Next(); again != err {
			t.Errorf("%s: Next after the error returned %v", c.input, again)
		}
	}
}

func TestReadNDJSONReadsMissingTimeAsIndex(t *testing.T) {
	ts, err := traj.ReadNDJSON(strings.NewReader(`{"id":4,"points":[[1,2],[3,4,9],[5,6]]}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []geo.Point{{X: 1, Y: 2, T: 0}, {X: 3, Y: 4, T: 9}, {X: 5, Y: 6, T: 2}}
	if len(ts) != 1 || ts[0].ID != 4 || !samePoints(ts[0].Points, want) {
		t.Fatalf("read %+v, want id 4 and %v", ts, want)
	}
	if _, err := traj.ReadNDJSON(strings.NewReader(`{"points":[[1,2]]}` + "\n" + `{"points":[]}`)); err == nil ||
		!strings.Contains(err.Error(), "record 2") {
		t.Fatalf("empty record: err %v, want one naming record 2", err)
	}
}

func ExampleScanner() {
	sc := traj.NewScanner(strings.NewReader(`{"id":1,"points":[[0,0],[1,1]]} {"points":[[2,2,30]]}`), 1<<20)
	for {
		t, err := sc.Next()
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Println(t.ID, t.Points)
	}
	// Output:
	// 1 [{0 0 0} {1 1 1}]
	// 0 [{2 2 30}]
	// EOF
}
