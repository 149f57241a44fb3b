package t2vec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/nn"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

func randWalk(rng *rand.Rand, n int) traj.Trajectory {
	pts := make([]geo.Point, n)
	x, y := rng.Float64(), rng.Float64()
	for i := range pts {
		x += rng.NormFloat64() * 0.02
		y += rng.NormFloat64() * 0.02
		pts[i] = geo.Point{X: x, Y: y, T: float64(i)}
	}
	return traj.New(pts...)
}

func TestModelIdentityDistanceZero(t *testing.T) {
	m := NewRandomModel(8, 1)
	rng := rand.New(rand.NewSource(2))
	tr := randWalk(rng, 12)
	if d := m.Dist(tr, tr); math.Abs(d) > 1e-12 {
		t.Errorf("self distance = %v, want 0", d)
	}
}

func TestModelDeterministic(t *testing.T) {
	a := NewRandomModel(8, 7)
	b := NewRandomModel(8, 7)
	rng := rand.New(rand.NewSource(3))
	x := randWalk(rng, 10)
	y := randWalk(rng, 8)
	if da, db := a.Dist(x, y), b.Dist(x, y); da != db {
		t.Errorf("same seed models disagree: %v vs %v", da, db)
	}
	c := NewRandomModel(8, 8)
	if dc := c.Dist(x, y); dc == a.Dist(x, y) {
		t.Error("different seeds should give different measures (almost surely)")
	}
}

func TestModelSymmetric(t *testing.T) {
	m := NewRandomModel(8, 1)
	rng := rand.New(rand.NewSource(4))
	a := randWalk(rng, 9)
	b := randWalk(rng, 11)
	if d1, d2 := m.Dist(a, b), m.Dist(b, a); math.Abs(d1-d2) > 1e-12 {
		t.Errorf("not symmetric: %v vs %v", d1, d2)
	}
}

func TestModelEmptyTrajectory(t *testing.T) {
	m := NewRandomModel(8, 1)
	a := traj.FromXY(0, 0, 1, 1)
	if d := m.Dist(a, traj.New()); !math.IsInf(d, 1) {
		t.Errorf("dist vs empty = %v, want +Inf", d)
	}
}

func TestIncrementalMatchesScratch(t *testing.T) {
	// The core t2vec contract from Table 1: the incremental computer
	// (one GRU step per point) must agree exactly with Embed-from-scratch.
	m := NewRandomModel(8, 1)
	rng := rand.New(rand.NewSource(5))
	data := randWalk(rng, 12)
	q := randWalk(rng, 6)
	n := data.Len()
	for i := 0; i < n; i++ {
		inc := m.NewIncremental(data, q)
		got := inc.Init(i)
		want := m.Dist(data.Sub(i, i), q)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("Init(%d) = %v, want %v", i, got, want)
		}
		for j := i + 1; j < n; j++ {
			got = inc.Extend()
			want = m.Dist(data.Sub(i, j), q)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("[%d,%d] incremental = %v, scratch = %v", i, j, got, want)
			}
			if inc.End() != j {
				t.Fatalf("End() = %d, want %d", i, j)
			}
		}
	}
}

func TestQueryEmbeddingCache(t *testing.T) {
	m := NewRandomModel(8, 1)
	rng := rand.New(rand.NewSource(6))
	q := randWalk(rng, 10)
	v1 := m.QueryEmbedding(q)
	v2 := m.QueryEmbedding(q)
	if &v1[0] != &v2[0] {
		t.Error("repeated query embedding should hit the cache")
	}
	other := randWalk(rng, 10)
	v3 := m.QueryEmbedding(other)
	if &v3[0] == &v1[0] {
		t.Error("different query should miss the cache")
	}
}

// TestQueryEmbeddingCacheKeepsReversal: a splitting search's prefix pass
// embeds the query and its suffix pass the query's reversal, alternating
// per candidate; both must stay cached.
func TestQueryEmbeddingCacheKeepsReversal(t *testing.T) {
	m := NewRandomModel(8, 1)
	q := randWalk(rand.New(rand.NewSource(8)), 10)
	qRev := q.Reverse()
	v1 := m.QueryEmbedding(q)
	vRev := m.QueryEmbedding(qRev)
	v3 := m.QueryEmbedding(q)
	if &v1[0] != &v3[0] {
		t.Error("the query's embedding was evicted by its reversal's")
	}
	if vRev2 := m.QueryEmbedding(qRev); &vRev2[0] != &vRev[0] {
		t.Error("the reversal's embedding was evicted by the query's")
	}
	if third := m.QueryEmbedding(q.Clone()); &third[0] == &v1[0] || &third[0] == &vRev[0] {
		t.Error("a query with other point storage hit the cache")
	}
}

func TestEmbedLocality(t *testing.T) {
	// A small perturbation of a trajectory should move its embedding less
	// than an unrelated trajectory does — random GRU projections preserve
	// coarse locality.
	m := NewRandomModel(16, 1)
	rng := rand.New(rand.NewSource(7))
	base := randWalk(rng, 20)
	near := base.Clone()
	for i := range near.Points {
		near.Points[i].X += 0.001
	}
	far := randWalk(rng, 20).Translate(0.5, 0.5)
	dNear := m.Dist(base, near)
	dFar := m.Dist(base, far)
	if dNear >= dFar {
		t.Errorf("locality violated: near %v >= far %v", dNear, dFar)
	}
}

func TestTrainReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	trajs := make([]traj.Trajectory, 30)
	for i := range trajs {
		trajs[i] = randWalk(rng, 15)
	}
	model, stats, err := Train(trajs, TrainConfig{Hidden: 8, Epochs: 8, Seed: 3})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if model == nil || len(stats.EpochLoss) != 8 {
		t.Fatalf("unexpected stats: %+v", stats)
	}
	first, last := stats.EpochLoss[0], stats.EpochLoss[len(stats.EpochLoss)-1]
	if !(last < first) {
		t.Errorf("training did not reduce loss: %v -> %v", first, last)
	}
}

func TestTrainEmptyInput(t *testing.T) {
	if _, _, err := Train(nil, TrainConfig{}); err == nil {
		t.Error("expected error training on no data")
	}
}

func TestTrainedModelStillSatisfiesIncrementalContract(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	trajs := make([]traj.Trajectory, 10)
	for i := range trajs {
		trajs[i] = randWalk(rng, 12)
	}
	model, _, err := Train(trajs, TrainConfig{Hidden: 6, Epochs: 2, Seed: 4})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	data, q := trajs[0], trajs[1]
	inc := model.NewIncremental(data, q)
	got := inc.Init(0)
	if want := model.Dist(data.Sub(0, 0), q); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Init = %v, want %v", got, want)
	}
	for j := 1; j < data.Len(); j++ {
		got = inc.Extend()
		if want := model.Dist(data.Sub(0, j), q); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Extend to %d = %v, want %v", j, got, want)
		}
	}
}

func TestTokenModelTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	trajs := make([]traj.Trajectory, 25)
	for i := range trajs {
		trajs[i] = randWalk(rng, 15)
	}
	model, stats, err := Train(trajs, TrainConfig{
		Hidden: 8, Epochs: 6, Seed: 3, TokenGrid: 8, EmbedDim: 4,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if model.grid != 8 || model.emb == nil {
		t.Fatal("token model not configured")
	}
	first, last := stats.EpochLoss[0], stats.EpochLoss[len(stats.EpochLoss)-1]
	if !(last < first) {
		t.Errorf("token training did not reduce loss: %v -> %v", first, last)
	}
	// the incremental contract must hold for token models too
	data, q := trajs[0], trajs[1]
	inc := model.NewIncremental(data, q)
	got := inc.Init(0)
	if want := model.Dist(data.Sub(0, 0), q); math.Abs(got-want) > 1e-12 {
		t.Fatalf("token Init = %v, want %v", got, want)
	}
	for j := 1; j < data.Len(); j++ {
		got = inc.Extend()
		if want := model.Dist(data.Sub(0, j), q); math.Abs(got-want) > 1e-12 {
			t.Fatalf("token incremental [0,%d] = %v, want %v", j, got, want)
		}
	}
}

func TestTokenAssignment(t *testing.T) {
	m, _, err := Train([]traj.Trajectory{randWalk(rand.New(rand.NewSource(21)), 10)},
		TrainConfig{Hidden: 4, Epochs: 1, TokenGrid: 4, EmbedDim: 3, Seed: 5})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	b := m.Bounds()
	corner := geo.Point{X: b.MinX, Y: b.MinY}
	if tok := m.Token(corner); tok != 0 {
		t.Errorf("min corner token = %d, want 0", tok)
	}
	far := geo.Point{X: b.MaxX + 100, Y: b.MaxY + 100}
	if tok := m.Token(far); tok != 15 {
		t.Errorf("outside point should clamp to last cell, got %d", tok)
	}
	// coordinate models report -1
	coord := NewRandomModel(4, 1)
	if tok := coord.Token(corner); tok != -1 {
		t.Errorf("coordinate model token = %d, want -1", tok)
	}
}

func TestTokenModelSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	trajs := make([]traj.Trajectory, 5)
	for i := range trajs {
		trajs[i] = randWalk(rng, 12)
	}
	m, _, err := Train(trajs, TrainConfig{Hidden: 4, Epochs: 1, TokenGrid: 4, EmbedDim: 3, Seed: 6})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	a, b := randWalk(rng, 8), randWalk(rng, 6)
	if d1, d2 := m.Dist(a, b), got.Dist(a, b); d1 != d2 {
		t.Errorf("token round trip changed distances: %v vs %v", d1, d2)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := NewRandomModel(8, 11)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rng := rand.New(rand.NewSource(12))
	a, b := randWalk(rng, 10), randWalk(rng, 7)
	if d1, d2 := m.Dist(a, b), got.Dist(a, b); d1 != d2 {
		t.Errorf("round trip changed distances: %v vs %v", d1, d2)
	}
	if got.Dim() != 8 {
		t.Errorf("Dim = %d, want 8", got.Dim())
	}
}

func TestSaveLoadFile(t *testing.T) {
	m := NewRandomModel(4, 13)
	path := t.TempDir() + "/t2vec.model"
	if err := m.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	tr := traj.FromXY(0.1, 0.2, 0.3, 0.4)
	q := traj.FromXY(0.5, 0.5)
	if m.Dist(tr, q) != got.Dist(tr, q) {
		t.Error("file round trip changed distances")
	}
}

func TestLoadCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("expected error for corrupt model data")
	}
}

// TestLoadRejectsHostileModels: model files whose parts do not fit each
// other, or carry non-finite numbers, are load errors — never a panic, an
// allocation sized by the header alone, or a model that fails at embed
// time.
func TestLoadRejectsHostileModels(t *testing.T) {
	gru := func(in int) *nn.GRU { return nn.NewGRU(in, 4, rand.New(rand.NewSource(23))) }
	unit := geo.Rect{MaxX: 1, MaxY: 1}
	nanWeight := gru(2)
	nanWeight.Wz.W[0] = math.NaN()
	hugeWeight := gru(2)
	hugeWeight.Uh.W[3] = 1e300
	models := map[string]*Model{
		"table too narrow":     {enc: gru(3), bounds: unit, grid: 4, emb: nn.NewTensor(16, 2)},
		"table too short":      {enc: gru(3), bounds: unit, grid: 4, emb: nn.NewTensor(9, 3)},
		"one-input coordinate": {enc: gru(1), bounds: unit},
		"NaN bound":            {enc: gru(2), bounds: geo.Rect{MinX: math.NaN(), MaxX: 1, MaxY: 1}},
		"infinite bound":       {enc: gru(2), bounds: geo.Rect{MaxX: math.Inf(1), MaxY: 1}},
		"infinite extent":      {enc: gru(2), bounds: geo.Rect{MinX: -1e308, MaxX: 1e308, MaxY: 1}},
		"NaN weight":           {enc: nanWeight, bounds: unit},
		"overflowing weight":   {enc: hugeWeight, bounds: unit},
	}
	files := map[string][]byte{}
	for name, m := range models {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		files[name] = buf.Bytes()
	}
	var coord bytes.Buffer
	if err := nn.SaveGRU(&coord, gru(2)); err != nil {
		t.Fatal(err)
	}
	files["negative grid"] = append([]byte("t2vec -1 0 0 1 1\n"), coord.Bytes()...)
	files["table shape overflows"] = []byte("t2vec 4 0 0 1 1\n3 4611686018427387904\n")
	files["table larger than the file"] = []byte("t2vec 4 0 0 1 1\n16 1000000000000\n0\n")
	for name, b := range files {
		if m, err := Load(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: loaded a model (dim %d, grid %d), want an error", name, m.Dim(), m.Grid())
		}
	}
}

func TestSuffixDistsWorksWithT2vec(t *testing.T) {
	// SuffixDists must agree with reversed-suffix scratch computation for
	// t2vec too (the values differ from forward distances, unlike DTW).
	m := NewRandomModel(8, 1)
	rng := rand.New(rand.NewSource(14))
	data := randWalk(rng, 9)
	q := randWalk(rng, 5)
	got := sim.SuffixDists(m, data, q)
	n := data.Len()
	for i := 0; i < n; i++ {
		want := m.Dist(data.Sub(i, n-1).Reverse(), q.Reverse())
		if math.Abs(got[i]-want) > 1e-9 {
			t.Errorf("SuffixDists[%d] = %v, want %v", i, got[i], want)
		}
	}
}
