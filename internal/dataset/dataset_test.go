package dataset

import (
	"math"
	"testing"
)

func TestGenerateCountsAndIDs(t *testing.T) {
	for _, kind := range []Kind{Porto, Harbin, Sports} {
		ts := Generate(Config{Kind: kind, N: 50, Seed: 1})
		if len(ts) != 50 {
			t.Fatalf("%v: got %d trajectories", kind, len(ts))
		}
		for i, tr := range ts {
			if tr.ID != i {
				t.Errorf("%v: trajectory %d has ID %d", kind, i, tr.ID)
			}
			if tr.Len() == 0 {
				t.Errorf("%v: empty trajectory %d", kind, i)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Kind: Porto, N: 10, Seed: 42})
	b := Generate(Config{Kind: Porto, N: 10, Seed: 42})
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("trajectory %d differs across same-seed runs", i)
		}
	}
	c := Generate(Config{Kind: Porto, N: 10, Seed: 43})
	if a[0].Equal(c[0]) {
		t.Error("different seeds should differ (almost surely)")
	}
}

func TestGenerateLengthDistribution(t *testing.T) {
	for _, kind := range []Kind{Porto, Harbin, Sports} {
		ts := Generate(Config{Kind: kind, N: 200, Seed: 2})
		mean := 0.0
		lo, hi := kind.MeanLen()/2, kind.MeanLen()*3/2
		for _, tr := range ts {
			if tr.Len() < lo || tr.Len() > hi {
				t.Fatalf("%v: length %d outside [%d,%d]", kind, tr.Len(), lo, hi)
			}
			mean += float64(tr.Len())
		}
		mean /= float64(len(ts))
		want := float64(kind.MeanLen())
		if math.Abs(mean-want) > want*0.15 {
			t.Errorf("%v: mean length %.1f, want about %.0f", kind, mean, want)
		}
	}
}

func TestGenerateInsideUnitSquare(t *testing.T) {
	for _, kind := range []Kind{Porto, Harbin, Sports} {
		ts := Generate(Config{Kind: kind, N: 30, Seed: 3})
		for _, tr := range ts {
			for _, p := range tr.Points {
				if p.X < -1e-9 || p.X > 1+1e-9 || p.Y < -1e-9 || p.Y > 1+1e-9 {
					t.Fatalf("%v: point %v outside unit square", kind, p)
				}
			}
		}
	}
}

func TestTimestampsIncrease(t *testing.T) {
	for _, kind := range []Kind{Porto, Harbin, Sports} {
		ts := Generate(Config{Kind: kind, N: 10, Seed: 4})
		for _, tr := range ts {
			for i := 1; i < tr.Len(); i++ {
				if tr.Pt(i).T <= tr.Pt(i-1).T {
					t.Fatalf("%v: timestamps not increasing at %d", kind, i)
				}
			}
		}
	}
}

func TestHarbinSamplingIsNonUniform(t *testing.T) {
	porto := Generate(Config{Kind: Porto, N: 20, Seed: 5})
	harbin := Generate(Config{Kind: Harbin, N: 20, Seed: 5})
	// coefficient of variation of sampling intervals
	cvFor := func(kindTs []float64) float64 {
		n := len(kindTs)
		if n < 2 {
			return 0
		}
		var mean float64
		for _, v := range kindTs {
			mean += v
		}
		mean /= float64(n)
		var varr float64
		for _, v := range kindTs {
			varr += (v - mean) * (v - mean)
		}
		return math.Sqrt(varr/float64(n)) / mean
	}
	var portoIv, harbinIv []float64
	for _, tr := range porto {
		for i := 1; i < tr.Len(); i++ {
			portoIv = append(portoIv, tr.Pt(i).T-tr.Pt(i-1).T)
		}
	}
	for _, tr := range harbin {
		for i := 1; i < tr.Len(); i++ {
			harbinIv = append(harbinIv, tr.Pt(i).T-tr.Pt(i-1).T)
		}
	}
	if cvPorto, cvHarbin := cvFor(portoIv), cvFor(harbinIv); cvHarbin < 3*cvPorto+0.1 {
		t.Errorf("Harbin interval CV %.3f should far exceed Porto's %.3f", cvHarbin, cvPorto)
	}
}

func TestKindHelpers(t *testing.T) {
	for _, c := range []struct {
		name string
		kind Kind
	}{{"Porto", Porto}, {"harbin", Harbin}, {"Sports", Sports}} {
		k, err := KindByName(c.name)
		if err != nil || k != c.kind {
			t.Errorf("KindByName(%q) = %v, %v", c.name, k, err)
		}
	}
	if _, err := KindByName("mars"); err == nil {
		t.Error("expected error for unknown dataset")
	}
	if Porto.String() != "Porto" || Harbin.String() != "Harbin" || Sports.String() != "Sports" {
		t.Error("String names wrong")
	}
}

func TestPairs(t *testing.T) {
	ts := Generate(Config{Kind: Porto, N: 30, Seed: 6})
	pairs := Pairs(ts, 50, 0, 0, 7)
	if len(pairs) != 50 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for _, p := range pairs {
		if p.Data.ID == p.Query.ID {
			t.Error("pair uses the same trajectory twice")
		}
	}
	// query clipping
	clipped := Pairs(ts, 20, 5, 10, 8)
	for _, p := range clipped {
		if p.Query.Len() < 5 || p.Query.Len() > 10 {
			t.Errorf("query length %d outside [5,10]", p.Query.Len())
		}
	}
	// deterministic
	again := Pairs(ts, 50, 0, 0, 7)
	for i := range pairs {
		if !pairs[i].Data.Equal(again[i].Data) || !pairs[i].Query.Equal(again[i].Query) {
			t.Fatal("Pairs not deterministic for fixed seed")
		}
	}
	if Pairs(ts[:1], 5, 0, 0, 1) != nil {
		t.Error("need at least 2 trajectories")
	}
}

func TestGroupPairs(t *testing.T) {
	ts := Generate(Config{Kind: Harbin, N: 50, Seed: 9})
	for _, g := range PaperGroups() {
		pairs := GroupPairs(ts, g, 20, 10)
		if len(pairs) == 0 {
			t.Fatalf("%s: no pairs generated", g.Name)
		}
		for _, p := range pairs {
			if p.Query.Len() < g.Lo || p.Query.Len() >= g.Hi {
				t.Errorf("%s: query length %d outside [%d,%d)", g.Name, p.Query.Len(), g.Lo, g.Hi)
			}
		}
	}
}

func TestTotalPoints(t *testing.T) {
	ts := Generate(Config{Kind: Porto, N: 10, Seed: 11})
	want := 0
	for _, tr := range ts {
		want += tr.Len()
	}
	if got := TotalPoints(ts); got != want {
		t.Errorf("TotalPoints = %d, want %d", got, want)
	}
}

// BenchmarkGenerate generates 30000 Porto records of 8–24 points per op.
func BenchmarkGenerate(b *testing.B) {
	for b.Loop() {
		Generate(Config{Kind: Porto, N: 30000, Seed: 1, MinLen: 8, MaxLen: 24})
	}
}
