package traj

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"simsub/internal/geo"
)

func randomTrajs(seed int64, count int) []Trajectory {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Trajectory, count)
	for i := range out {
		n := rng.Intn(20) + 1
		pts := make([]geo.Point, n)
		for j := range pts {
			pts[j] = geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100, T: float64(j) * 15}
		}
		out[i] = Trajectory{ID: i, Points: pts}
	}
	return out
}

func TestCSVRoundTrip(t *testing.T) {
	ts := randomTrajs(1, 10)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ts); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(got) != len(ts) {
		t.Fatalf("round trip count = %d, want %d", len(got), len(ts))
	}
	for i := range ts {
		if got[i].ID != ts[i].ID || !got[i].Equal(ts[i]) {
			t.Errorf("trajectory %d mismatched after round trip", i)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trajs.csv")
	ts := randomTrajs(3, 5)
	if err := SaveCSV(path, ts); err != nil {
		t.Fatalf("SaveCSV: %v", err)
	}
	got, err := LoadCSV(path)
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	if len(got) != len(ts) {
		t.Fatalf("count = %d, want %d", len(got), len(ts))
	}
	for i := range ts {
		if !got[i].Equal(ts[i]) {
			t.Errorf("trajectory %d mismatched after file round trip", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty input", ""},
		{"wrong column count", "a,b\n"},
		{"bad id", "id,seq,x,y,t\nxx,0,1,2,3\n"},
		{"bad coordinate", "id,seq,x,y,t\n1,0,abc,2,3\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(c.in)); err == nil {
				t.Errorf("expected error for %q", c.name)
			}
		})
	}
}

func TestLoadCSVMissingFile(t *testing.T) {
	if _, err := LoadCSV(filepath.Join(t.TempDir(), "nope.csv")); err == nil {
		t.Error("expected error for missing file")
	}
}

// TestWriteCSVRejectsNonFinite: WriteCSV refuses, before writing a byte,
// the coordinates ReadCSV would refuse, so it never writes a file its own
// reader rejects; SaveCSV passes the error on.
func TestWriteCSVRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ts := []Trajectory{{ID: 4, Points: []geo.Point{{X: 0, Y: 0}, {X: 1, Y: v, T: 2}}}}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ts); !errors.Is(err, ErrNonFiniteCoordinate) {
			t.Fatalf("y = %v: %v, want ErrNonFiniteCoordinate", v, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("y = %v: wrote %q before refusing", v, buf.String())
		}
		if err := SaveCSV(filepath.Join(t.TempDir(), "bad.csv"), ts); !errors.Is(err, ErrNonFiniteCoordinate) {
			t.Fatalf("SaveCSV, y = %v: %v, want ErrNonFiniteCoordinate", v, err)
		}
	}
}
