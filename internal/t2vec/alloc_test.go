package t2vec

import (
	"math/rand"
	"testing"

	"simsub/internal/sim"
	"simsub/internal/traj"
)

// Allocation pins for the Φinc path: a point pushed onto a stream, or an
// Extend of an incremental computer, is one GRU step into scratch the
// computer owns, so it allocates nothing; Embed allocates its scratch once
// per call, whatever the trajectory's length, and returns an embedding
// that owns exactly HiddenDim values.

// allocModels covers a coordinate model and a token model.
func allocModels(t *testing.T) map[string]*Model {
	rng := rand.New(rand.NewSource(71))
	corpus := []traj.Trajectory{randWalk(rng, 12), randWalk(rng, 12)}
	tok, _, err := Train(corpus, TrainConfig{Hidden: 6, Epochs: 1, TokenGrid: 4, EmbedDim: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Model{"coord": NewRandomModel(DefaultHidden, 1), "token": tok}
}

func TestStreamPushZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	data, q := randWalk(rng, 40), randWalk(rng, 8)
	for name, m := range allocModels(t) {
		s := sim.NewStream(m, q)
		j := 0
		allocs := testing.AllocsPerRun(100, func() {
			s.Push(data.Points[j%data.Len()])
			j++
		})
		if allocs != 0 {
			t.Errorf("%s: Push allocates %v times per point, want 0", name, allocs)
		}
	}
}

func TestIncrementalExtendZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	data, q := randWalk(rng, 40), randWalk(rng, 8)
	for name, m := range allocModels(t) {
		inc := m.NewIncremental(data, q)
		allocs := testing.AllocsPerRun(20, func() {
			inc.Init(0)
			for inc.End()+1 < data.Len() {
				inc.Extend()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Init and %d Extends allocate %v times, want 0", name, data.Len()-1, allocs)
		}
	}
}

func TestEmbedAllocsIndependentOfLength(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	short, long := randWalk(rng, 3), randWalk(rng, 300)
	for name, m := range allocModels(t) {
		a := testing.AllocsPerRun(20, func() { m.Embed(short) })
		b := testing.AllocsPerRun(20, func() { m.Embed(long) })
		if a != b {
			t.Errorf("%s: Embed allocates %v times for %d points, %v for %d", name, a, short.Len(), b, long.Len())
		}
		if e := m.Embed(long); len(e) != m.Dim() || cap(e) != m.Dim() {
			t.Errorf("%s: embedding has len %d cap %d, want both %d", name, len(e), cap(e), m.Dim())
		}
	}
}

func BenchmarkEmbed(b *testing.B) {
	m := NewRandomModel(DefaultHidden, 1)
	tr := randWalk(rand.New(rand.NewSource(5)), 64)
	b.ReportAllocs()
	for b.Loop() {
		m.Embed(tr)
	}
}
