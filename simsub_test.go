package simsub

import (
	"math"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	data := FromXY(0, 0, 1, 0, 2, 0, 3, 1, 4, 2)
	query := FromXY(2, 0, 3, 1)
	res := Exact(DTW()).Search(data, query)
	if !res.Interval.Valid(data.Len()) {
		t.Fatalf("invalid interval %v", res.Interval)
	}
	if res.Dist > 1e-9 {
		t.Errorf("embedded query should be found exactly, dist %v", res.Dist)
	}
}

func TestAllAlgorithmConstructors(t *testing.T) {
	data := RandomWalk(20, 0.1, 1)
	query := RandomWalk(5, 0.1, 2)
	m := DTW()
	algs := []Algorithm{
		Exact(m),
		Size(m, 3),
		PrefixSuffix(m),
		PrefixOnly(m),
		PrefixOnlyDelay(m, 5),
		Spring(1),
		UCRSearch(0.5),
		RandomSample(m, 20, 3),
		WholeTrajectory(m),
	}
	exact := algs[0].Search(data, query)
	for _, a := range algs {
		res := a.Search(data, query)
		if !res.Interval.Valid(data.Len()) {
			t.Errorf("%s: invalid interval %v", a.Name(), res.Interval)
		}
		if res.Dist < exact.Dist-1e-9 {
			t.Errorf("%s: dist %v beats exact %v", a.Name(), res.Dist, exact.Dist)
		}
	}
}

func TestAllMeasureConstructors(t *testing.T) {
	a := RandomWalk(10, 0.05, 4)
	for _, m := range []Measure{DTW(), Frechet(), CDTW(0.5), ERP(), EDR(0.3), EDS(), EDwP()} {
		if d := m.Dist(a, a); math.Abs(d) > 1e-9 {
			t.Errorf("%s: self distance %v", m.Name(), d)
		}
	}
	names := MeasureNames()
	if got, want := strings.Join(names, " "), "dtw edr erp frechet"; got != want {
		t.Errorf("registered measures %q, want %q", got, want)
	}
	for _, n := range names {
		if _, err := MeasureByName(n); err != nil {
			t.Errorf("MeasureByName(%q): %v", n, err)
		}
	}
}

func TestTrainedPolicyEndToEnd(t *testing.T) {
	var data, queries []Trajectory
	for i := 0; i < 10; i++ {
		data = append(data, RandomWalk(15, 0.05, int64(i+1)))
		queries = append(queries, RandomWalk(4, 0.05, int64(100+i)))
	}
	p, err := TrainPolicy(data, queries, DTW(), PolicyConfig{
		K: 3, UseSuffix: true, Episodes: 15, Seed: 5,
	})
	if err != nil {
		t.Fatalf("TrainPolicy: %v", err)
	}
	alg := RL(DTW(), p)
	if alg.Name() != "RLS-Skip" {
		t.Errorf("Name = %q", alg.Name())
	}
	res := alg.Search(data[0], queries[0])
	if !res.Interval.Valid(data[0].Len()) {
		t.Errorf("invalid interval %v", res.Interval)
	}
}

func TestDatabaseTopK(t *testing.T) {
	var ts []Trajectory
	for i := 0; i < 20; i++ {
		tr := RandomWalk(25, 0.02, int64(i+1))
		tr.ID = i
		ts = append(ts, tr)
	}
	db := NewDatabase(ts, true)
	q := ts[3].Sub(5, 9)
	top := db.TopK(PrefixSuffix(DTW()), q, 5)
	if len(top) == 0 {
		t.Fatal("no matches")
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Result.Dist > top[i].Result.Dist {
			t.Fatal("matches unsorted")
		}
	}
}

func TestT2VecTraining(t *testing.T) {
	var ts []Trajectory
	for i := 0; i < 10; i++ {
		ts = append(ts, RandomWalk(12, 0.03, int64(i+1)))
	}
	m, err := TrainT2Vec(ts, 8, 1, 7)
	if err != nil {
		t.Fatalf("TrainT2Vec: %v", err)
	}
	if d := m.Dist(ts[0], ts[0]); d != 0 {
		t.Errorf("self dist %v", d)
	}
	res := Exact(m).Search(ts[0], ts[1])
	if !res.Interval.Valid(ts[0].Len()) {
		t.Errorf("invalid interval")
	}
}

func TestTopKSubtrajectories(t *testing.T) {
	data := RandomWalk(15, 0.1, 8)
	q := RandomWalk(4, 0.1, 9)
	exact := Exact(DTW()).Search(data, q)
	top := TopKSubtrajectories(DTW(), data, q, 5, false)
	if len(top) != 5 {
		t.Fatalf("got %d results", len(top))
	}
	if math.Abs(top[0].Dist-exact.Dist) > 1e-9 {
		t.Errorf("top-1 %v, exact %v", top[0].Dist, exact.Dist)
	}
	approx := TopKSubtrajectoriesApprox(DTW(), data, q, 5, true)
	if len(approx) == 0 {
		t.Fatal("no approximate results")
	}
	for i := 1; i < len(approx); i++ {
		if approx[i-1].Dist > approx[i].Dist {
			t.Fatal("approximate top-k not sorted")
		}
	}
}

func TestIndexedDatabaseAPI(t *testing.T) {
	var ts []Trajectory
	for i := 0; i < 15; i++ {
		tr := RandomWalk(20, 0.01, int64(i+1))
		tr.ID = i
		ts = append(ts, tr)
	}
	q := ts[4].Sub(3, 8)
	for _, withIndex := range []bool{true, false} {
		top := NewDatabase(ts, withIndex).TopK(PrefixSuffix(DTW()), q, 3)
		if len(top) == 0 || top[0].TrajIndex != 4 {
			t.Fatalf("index=%v: %+v, want trajectory 4 first (the query is a piece of it)", withIndex, top)
		}
	}
}

func TestSimplifyAPI(t *testing.T) {
	tr := FromXY(0, 0, 1, 0, 2, 0, 3, 0)
	if s := tr.Simplify(0.01); s.Len() != 2 {
		t.Errorf("Simplify kept %d points", s.Len())
	}
}

func TestSimConversionExported(t *testing.T) {
	if Sim(0) != 1 {
		t.Error("Sim(0) != 1")
	}
	if s := Sim(3); math.Abs(s-0.25) > 1e-12 {
		t.Errorf("Sim(3) = %v", s)
	}
}
