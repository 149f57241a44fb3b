package geo

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{X: 1, Y: 2}, Point{X: 1, Y: 2}, 0},
		{"unit x", Point{}, Point{X: 1}, 1},
		{"unit y", Point{}, Point{Y: 1}, 1},
		{"3-4-5", Point{}, Point{X: 3, Y: 4}, 5},
		{"negative coords", Point{X: -1, Y: -1}, Point{X: 2, Y: 3}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Dist(tc.p, tc.q); !almostEq(got, tc.want) {
				t.Errorf("Dist(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want)
			}
		})
	}
}

func TestDistIgnoresTime(t *testing.T) {
	p := Point{X: 1, Y: 1, T: 0}
	q := Point{X: 1, Y: 1, T: 99}
	if d := Dist(p, q); d != 0 {
		t.Errorf("Dist with differing timestamps = %v, want 0", d)
	}
}

func TestSqDistConsistentWithDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// keep magnitudes sane to avoid overflow in the quick-generated values
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		p := Point{X: clamp(ax), Y: clamp(ay)}
		q := Point{X: clamp(bx), Y: clamp(by)}
		d := Dist(p, q)
		return almostEq(d*d, SqDist(p, q)) || math.Abs(d*d-SqDist(p, q)) < 1e-6*SqDist(p, q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a := Point{X: 0, Y: 0, T: 0}
	b := Point{X: 10, Y: 20, T: 5}
	mid := Lerp(a, b, 0.5)
	if !almostEq(mid.X, 5) || !almostEq(mid.Y, 10) || !almostEq(mid.T, 2.5) {
		t.Errorf("Lerp midpoint = %v", mid)
	}
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp(0) = %v, want %v", got, a)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Errorf("Lerp(1) = %v, want %v", got, b)
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	if e.Area() != 0 {
		t.Errorf("empty area = %v", e.Area())
	}
	r := Rect{0, 0, 1, 1}
	if got := e.Union(r); got != r {
		t.Errorf("empty.Union(r) = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("r.Union(empty) = %v, want %v", got, r)
	}
	if e.Intersects(r) {
		t.Error("empty rect should not intersect anything")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 5}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{X: 5, Y: 2}, true},
		{Point{X: 0, Y: 0}, true},  // boundary
		{Point{X: 10, Y: 5}, true}, // boundary
		{Point{X: -0.1, Y: 2}, false},
		{Point{X: 5, Y: 5.1}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{1, 1, 3, 3}, true},
		{Rect{2, 2, 3, 3}, true}, // touching corner counts
		{Rect{3, 3, 4, 4}, false},
		{Rect{0.5, 0.5, 1.5, 1.5}, true}, // contained
		{Rect{-1, 0, -0.1, 2}, false},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("%v.Intersects(%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("intersects not symmetric for %v", c.b)
		}
	}
}

func TestRectUnionProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		norm := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1000)
		}
		r1 := MBR([]Point{{X: norm(ax), Y: norm(ay)}, {X: norm(bx), Y: norm(by)}})
		r2 := MBR([]Point{{X: norm(cx), Y: norm(cy)}, {X: norm(dx), Y: norm(dy)}})
		u := r1.Union(r2)
		// union contains both operands and is commutative
		return u.ContainsRect(r1) && u.ContainsRect(r2) && u == r2.Union(r1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectEnlargement(t *testing.T) {
	r := Rect{0, 0, 1, 1}
	if g := r.Enlargement(Rect{0.2, 0.2, 0.8, 0.8}); !almostEq(g, 0) {
		t.Errorf("enlargement of contained rect = %v, want 0", g)
	}
	if g := r.Enlargement(Rect{0, 0, 2, 1}); !almostEq(g, 1) {
		t.Errorf("enlargement = %v, want 1", g)
	}
}

func TestRectDistToPoint(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{X: 1, Y: 1}, 0},   // inside
		{Point{X: 2, Y: 2}, 0},   // boundary
		{Point{X: 5, Y: 2}, 3},   // right side
		{Point{X: 1, Y: -2}, 2},  // below
		{Point{X: 5, Y: 6}, 5},   // corner 3-4-5
		{Point{X: -3, Y: -4}, 5}, // opposite corner
	}
	for _, c := range cases {
		if got := r.DistToPoint(c.p); !almostEq(got, c.want) {
			t.Errorf("DistToPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMBR(t *testing.T) {
	pts := []Point{{X: 3, Y: 1}, {X: -1, Y: 4}, {X: 2, Y: 2}}
	want := Rect{-1, 1, 3, 4}
	if got := MBR(pts); got != want {
		t.Errorf("MBR = %v, want %v", got, want)
	}
	if !MBR(nil).IsEmpty() {
		t.Error("MBR of no points should be empty")
	}
}

func TestRectExpandAndCenter(t *testing.T) {
	r := Rect{0, 0, 4, 2}
	e := r.Expand(1)
	want := Rect{-1, -1, 5, 3}
	if e != want {
		t.Errorf("Expand = %v, want %v", e, want)
	}
	c := r.Center()
	if !almostEq(c.X, 2) || !almostEq(c.Y, 1) {
		t.Errorf("Center = %v", c)
	}
}

func TestPointSegDist(t *testing.T) {
	a, b := Point{X: 0, Y: 0}, Point{X: 10, Y: 0}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{X: 5, Y: 3}, 3},  // perpendicular to interior
		{Point{X: -3, Y: 4}, 5}, // beyond a
		{Point{X: 13, Y: 4}, 5}, // beyond b
		{Point{X: 5, Y: 0}, 0},  // on segment
	}
	for _, c := range cases {
		if got := PointSegDist(c.p, a, b); !almostEq(got, c.want) {
			t.Errorf("PointSegDist(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// degenerate segment reduces to point distance
	if got := PointSegDist(Point{X: 3, Y: 4}, a, a); !almostEq(got, 5) {
		t.Errorf("degenerate PointSegDist = %v, want 5", got)
	}
}

func TestRectMargin(t *testing.T) {
	r := Rect{0, 0, 3, 2}
	if got := r.Margin(); !almostEq(got, 5) {
		t.Errorf("Margin = %v, want 5", got)
	}
	if got := EmptyRect().Margin(); got != 0 {
		t.Errorf("empty Margin = %v, want 0", got)
	}
}

// extendFold is the reference MBR: the Rect.Extend fold (Union over
// math.Min/math.Max) that geo.MBR must reproduce bit for bit.
func extendFold(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.Extend(p)
	}
	return r
}

// FuzzMBR: MBR against the Extend fold on arbitrary float64 bit patterns —
// NaNs with any payload, ±0, ±Inf, subnormals — and on empty and
// one-point inputs. All four fields must match bit for bit.
func FuzzMBR(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	nan, inf := math.NaN(), math.Inf(1)
	f.Add([]byte{})
	f.Add(bits(1, 2))
	f.Add(bits(1, 2, -3, 4, 0.5, -7))
	f.Add(bits(math.Copysign(0, -1), 0, 0, math.Copysign(0, -1)))
	f.Add(bits(nan, 1, -inf, inf, 3, nan))
	f.Add(bits(inf, -inf, nan, nan, -inf, inf))
	f.Add(append(bits(1, 2), 0xbc, 0x0a, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f)) // NaN payload, +Inf
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := make([]Point, len(data)/16)
		for i := range pts {
			pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		got, want := MBR(pts), extendFold(pts)
		g := [4]float64{got.MinX, got.MinY, got.MaxX, got.MaxY}
		w := [4]float64{want.MinX, want.MinY, want.MaxX, want.MaxY}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("MBR(%v) = %v, Extend fold %v (field %d: %#x vs %#x)", pts, got, want, i, math.Float64bits(g[i]), math.Float64bits(w[i]))
			}
		}
	})
}
