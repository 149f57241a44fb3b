package t2vec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/nn"
	"simsub/internal/traj"
)

// FuzzEncoderLoad feeds arbitrary bytes to Load, the decoder behind
// -encoder files and POST /v2/admin/encoder. Whatever it returns must not
// panic, and a model it accepts must embed a short trajectory inside its
// bounds, and measure it against another, to finite numbers.
func FuzzEncoderLoad(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	trajs := []traj.Trajectory{randWalk(rng, 10), randWalk(rng, 12), randWalk(rng, 8)}
	for _, cfg := range []TrainConfig{
		{Hidden: 3, Epochs: 1, Seed: 1},
		{Hidden: 3, Epochs: 1, TokenGrid: 3, EmbedDim: 2, Seed: 2},
	} {
		m, _, err := Train(trajs, cfg)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var coord bytes.Buffer
	if err := nn.SaveGRU(&coord, nn.NewGRU(2, 2, rng)); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte("t2vec 0 -1e308 0 1e308 1\n"), coord.Bytes()...))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Load(bytes.NewReader(b))
		if err != nil {
			if m != nil {
				t.Fatalf("Load returned a model with error %v", err)
			}
			return
		}
		// a walk across the model's bounds, corner to corner
		bd := m.Bounds()
		var pts []geo.Point
		for _, s := range []float64{0, 0.3, 0.7, 1} {
			pts = append(pts, geo.Point{X: bd.MinX + s*(bd.MaxX-bd.MinX), Y: bd.MinY + s*(bd.MaxY-bd.MinY), T: s})
		}
		tr := traj.New(pts...)
		for _, v := range m.Embed(tr) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("embedding has %v", v)
			}
		}
		if d := m.Dist(tr, tr.Sub(1, 2)); math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("distance %v", d)
		}
	})
}
