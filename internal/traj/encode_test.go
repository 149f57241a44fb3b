package traj_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"simsub/internal/dataset"
	"simsub/internal/geo"
	"simsub/internal/traj"
)

// pointsFrom decodes a fuzz input into a point list: per point, one byte
// whose value mod 6 is its arity 0–4 (5 is a nil point), then that many
// little-endian float64 bit patterns. Input that runs out ends the list; an
// empty list is nil when nilList is set.
func pointsFrom(data []byte, nilList bool) [][]float64 {
	pts := [][]float64{}
	for len(data) > 0 {
		arity := int(data[0] % 6)
		data = data[1:]
		if arity == 5 {
			pts = append(pts, nil)
			continue
		}
		if len(data) < 8*arity {
			break
		}
		p := make([]float64, arity)
		for i := range p {
			p[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		pts = append(pts, p)
	}
	if len(pts) == 0 && nilList {
		return nil
	}
	return pts
}

// fuzzInput is pointsFrom's inverse for the seed corpus.
func fuzzInput(pts ...[]float64) []byte {
	var out []byte
	for _, p := range pts {
		if p == nil {
			out = append(out, 5)
			continue
		}
		out = append(out, byte(len(p)))
		for _, v := range p {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// FuzzAppendPoints holds the trajectory encoder to encoding/json: for any
// float64 bit patterns at arities 0–4, nil points and nil or empty lists,
// AppendPoints writes json.Marshal's bytes after whatever dst held, and a
// NaN or ±Inf fails both, AppendPoints leaving dst as it was.
func FuzzAppendPoints(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, seed := range [][][]float64{
		{{0, 0}, {1, 2, 3}},
		{{negZero, negZero, negZero}},
		{{math.SmallestNonzeroFloat64, -2.2250738585072014e-308, 4.9e-320}},
		{{1e-7, -1e-7, 1e-6, 9.99999e-7}},
		{{1e21, -1e21, 999999999999999900000, 1e20}},
		{{math.MaxFloat64, -math.MaxFloat64}},
		{{-8.61092e+06, 41.1621, 1.3725e+09}},
		{{}, nil, {0.1}, {1, 2, 3, 4}},
		{{0, math.NaN()}},
		{{math.Inf(1)}, {math.Inf(-1)}},
	} {
		f.Add(fuzzInput(seed...), false)
	}
	f.Add([]byte{}, true)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, data []byte, nilList bool) {
		pts := pointsFrom(data, nilList)
		want, werr := json.Marshal(pts)
		prefix := []byte(`{"points":`)
		got, gerr := traj.AppendPoints(append([]byte(nil), prefix...), pts)
		if werr != nil {
			if !errors.Is(gerr, traj.ErrNonFiniteCoordinate) {
				t.Fatalf("%v: encoding/json fails (%v), AppendPoints gives %v", pts, werr, gerr)
			}
			if !bytes.Equal(got, prefix) {
				t.Fatalf("failed AppendPoints changed dst to %q", got)
			}
			if cerr := traj.CheckPoints(pts); cerr == nil || cerr.Error() != gerr.Error() {
				t.Fatalf("CheckPoints gives %v, AppendPoints %v", cerr, gerr)
			}
			return
		}
		if gerr != nil {
			t.Fatalf("%v: AppendPoints fails (%v), encoding/json writes %s", pts, gerr, want)
		}
		if !bytes.Equal(got[len(prefix):], want) || !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("%v:\nAppendPoints %s\nencoding/json %s", pts, got[len(prefix):], want)
		}
		if cerr := traj.CheckPoints(pts); cerr != nil {
			t.Fatalf("CheckPoints refuses what encodes: %v", cerr)
		}
	})
}

// writeNDJSONReflect is the encoder WriteNDJSON had before the trajectory
// encoder: encoding/json over a copy of each record.
func writeNDJSONReflect(w io.Writer, ts []traj.Trajectory) error {
	type jsonTraj struct {
		ID     int          `json:"id"`
		Points [][3]float64 `json:"points"`
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, t := range ts {
		jt := jsonTraj{ID: t.ID, Points: make([][3]float64, len(t.Points))}
		for j, p := range t.Points {
			jt.Points[j] = [3]float64{p.X, p.Y, p.T}
		}
		if err := enc.Encode(jt); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TestWriteNDJSONMatchesReflection: WriteNDJSON writes the reflection
// encoder's bytes for every generated family and for hand-picked edge
// values, and ReadNDJSON reads them back bit for bit.
func TestWriteNDJSONMatchesReflection(t *testing.T) {
	var ts []traj.Trajectory
	for _, k := range []dataset.Kind{dataset.Porto, dataset.Harbin, dataset.Sports} {
		ts = append(ts, dataset.Generate(dataset.Config{Kind: k, N: 300, Seed: int64(k) + 5})...)
	}
	edge := []geo.Point{
		{X: math.Copysign(0, -1), Y: 1e-7, T: 1e21},
		{X: math.SmallestNonzeroFloat64, Y: -math.MaxFloat64, T: 123456789.125},
		{X: 1e-6, Y: 9.999999999999999e20, T: -3.5e-300},
	}
	ts = append(ts, traj.Trajectory{ID: -7, Points: edge}, traj.Trajectory{ID: 1 << 40, Points: edge[:1]})

	var got, want bytes.Buffer
	if err := traj.WriteNDJSON(&got, ts); err != nil {
		t.Fatal(err)
	}
	if err := writeNDJSONReflect(&want, ts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		a, b := got.Bytes(), want.Bytes()
		i := 0
		for i < min(len(a), len(b)) && a[i] == b[i] {
			i++
		}
		t.Fatalf("WriteNDJSON differs from the reflection encoder at byte %d: %.60q vs %.60q", i, a[i:], b[i:])
	}

	back, err := traj.ReadNDJSON(&got)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ts) {
		t.Fatalf("read %d records back, wrote %d", len(back), len(ts))
	}
	bits := math.Float64bits
	for i, tr := range ts {
		if back[i].ID != tr.ID || len(back[i].Points) != len(tr.Points) {
			t.Fatalf("record %d: id %d, %d points; wrote id %d, %d points", i, back[i].ID, len(back[i].Points), tr.ID, len(tr.Points))
		}
		for j, p := range tr.Points {
			q := back[i].Points[j]
			if bits(q.X) != bits(p.X) || bits(q.Y) != bits(p.Y) || bits(q.T) != bits(p.T) {
				t.Fatalf("record %d point %d: read %+v, wrote %+v", i, j, q, p)
			}
		}
	}
}

// TestWriteNDJSONRejectsNonFinite: like encoding/json, the encoder refuses
// what JSON cannot express.
func TestWriteNDJSONRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ts := []traj.Trajectory{{Points: []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 1, T: v}}}}
		if err := traj.WriteNDJSON(io.Discard, ts); !errors.Is(err, traj.ErrNonFiniteCoordinate) {
			t.Fatalf("t = %v: %v, want ErrNonFiniteCoordinate", v, err)
		}
	}
}

// appendFloatStrconv is AppendFloat as it was before it made its own
// digits: strconv's shortest, with encoding/json's layout.
func appendFloatStrconv(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// checkAppendFloat fails t unless AppendFloat writes f as the strconv
// reference does, after what dst held.
func checkAppendFloat(t *testing.T, f float64) {
	t.Helper()
	prefix := []byte("[1,")
	want := appendFloatStrconv(append([]byte(nil), prefix...), f)
	got := traj.AppendFloat(append([]byte(nil), prefix...), f)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendFloat(%v) (bits %#016x) = %q, strconv reference %q", f, math.Float64bits(f), got[len(prefix):], want[len(prefix):])
	}
}

// FuzzAppendFloat holds AppendFloat to the strconv reference on arbitrary
// finite float64 bits.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20,
		1e23, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, math.MaxFloat64,
		1 << 53, 1<<53 - 1, 1<<53 + 2, 0.4765625, 41.1621, 1.3725e9, 123456.78901234567,
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		if v := math.Float64frombits(b); !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkAppendFloat(t, v)
		}
	})
}

// TestAppendFloatMatchesStrconv sweeps the places a shortest-digit
// formatter gets wrong: every power of two (each binary exponent, and each
// one's asymmetric interval) and of ten, a unit in the last place either
// side of each, the layout borders 1e-6 and 1e21, subnormals, ±0, integers
// near 2^53, and a million seeded random bit patterns.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	near := func(v float64) {
		for _, x := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)),
			math.Nextafter(math.Nextafter(v, 0), 0), math.Nextafter(math.Nextafter(v, math.Inf(1)), math.Inf(1))} {
			if !math.IsInf(x, 0) {
				checkAppendFloat(t, x)
				checkAppendFloat(t, -x)
			}
		}
	}
	for e := -1074; e <= 1023; e++ {
		near(math.Ldexp(1, e))
		near(math.Ldexp(3, e-1))
	}
	for e := -324; e <= 308; e++ {
		v, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil && v == 0 {
			continue
		}
		near(v)
		for _, m := range []float64{2, 5, 9.5, 9.999999999999999} {
			if v*m < math.MaxFloat64 {
				near(v * m)
			}
		}
	}
	for _, v := range []float64{1e-6, 1e21, 1e-7, 1e20, 1e22, 0.1, 0.2, 0.3, 1.0 / 3} {
		near(v)
	}
	for _, v := range []float64{math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 4.9e-320, 1e-310, 1.23456789e-315} {
		near(v)
	}
	checkAppendFloat(t, 0)
	checkAppendFloat(t, math.Copysign(0, -1))
	for i := -1000.0; i <= 1000; i++ {
		checkAppendFloat(t, 1<<53+i)
		checkAppendFloat(t, 1<<52+i)
		checkAppendFloat(t, 1<<54+4*i)
		checkAppendFloat(t, i)
		checkAppendFloat(t, i/8)
	}
	rng := rand.New(rand.NewSource(1))
	for range 1_000_000 {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkAppendFloat(t, v)
		}
	}
}

// TestAppendFloatFastPath: every coordinate of generated Porto records is
// written without the strconv fallback, which only subnormals take.
func TestAppendFloatFastPath(t *testing.T) {
	for _, tr := range dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 200, Seed: 9}) {
		for _, p := range tr.Points {
			for _, v := range [...]float64{p.X, p.Y, p.T} {
				if !traj.AppendFloatFast(v) {
					t.Fatalf("record %d: %v takes the strconv fallback", tr.ID, v)
				}
			}
		}
	}
	for _, v := range []float64{math.SmallestNonzeroFloat64, -4.9e-320} {
		if traj.AppendFloatFast(v) {
			t.Fatalf("subnormal %v does not take the strconv fallback", v)
		}
	}
}

var sinkBytes []byte

// BenchmarkAppendFloat times one float per op, strconv's shortest (the
// reference, appendFloatStrconv) beside AppendFloat's own digits, on
// generated Porto unit-square coordinates, their timestamps, integers, and
// all three interleaved with exponent-form values.
func BenchmarkAppendFloat(b *testing.B) {
	var unit, stamp, integer, mixed []float64
	for _, tr := range dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 40, Seed: 2}) {
		for _, p := range tr.Points {
			unit = append(unit, p.X, p.Y)
			stamp = append(stamp, p.T)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := range len(stamp) {
		integer = append(integer, float64(rng.Intn(1<<20)))
		mixed = append(mixed, unit[2*i], stamp[i], integer[i])
		if i%8 == 0 {
			mixed = append(mixed, unit[2*i]*1e-9, -stamp[i]*1e18)
		}
	}
	for _, set := range []struct {
		name string
		vals []float64
	}{{"unit", unit}, {"timestamp", stamp}, {"integer", integer}, {"mixed", mixed}} {
		for _, impl := range []struct {
			name string
			fn   func([]byte, float64) []byte
		}{{"strconv", appendFloatStrconv}, {"traj", traj.AppendFloat}} {
			b.Run(set.name+"/"+impl.name, func(b *testing.B) {
				buf := make([]byte, 0, 64)
				i := 0
				for b.Loop() {
					buf = impl.fn(buf[:0], set.vals[i])
					if i++; i == len(set.vals) {
						i = 0
					}
				}
				sinkBytes = buf
			})
		}
	}
}

// BenchmarkWriteNDJSON writes 2000 generated Porto records per op.
func BenchmarkWriteNDJSON(b *testing.B) {
	ts := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 2000, Seed: 2})
	var buf bytes.Buffer
	for b.Loop() {
		buf.Reset()
		if err := traj.WriteNDJSON(&buf, ts); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
