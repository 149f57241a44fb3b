package engine

import (
	"math/rand"
	"runtime"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// TestEncoderFingerprintGolden pins the fingerprint of seeded t2vec models
// to the values computed before the GRU weights were stacked into one
// kernel. Persisted embeddings are reused only under a matching
// fingerprint, so a moved value would silently re-embed every stored
// trajectory on the next recovery. The values are amd64 bits (no fused
// multiply-add), like the embedding goldens in package t2vec.
func TestEncoderFingerprintGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are amd64's, this is %s", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(43))
	corpus := make([]traj.Trajectory, 8)
	for i := range corpus {
		pts := make([]geo.Point, 10)
		x, y := rng.Float64(), rng.Float64()
		for j := range pts {
			x += rng.NormFloat64() * 0.05
			y += rng.NormFloat64() * 0.05
			pts[j] = geo.Point{X: x, Y: y, T: float64(j)}
		}
		corpus[i] = traj.New(pts...)
	}
	for _, c := range []struct {
		cfg  t2vec.TrainConfig
		want uint64
	}{
		{t2vec.TrainConfig{Hidden: 16, Epochs: 2, Seed: 9}, 0xb6e6616a9ce5ea42},
		{t2vec.TrainConfig{Hidden: 10, Epochs: 2, TokenGrid: 4, EmbedDim: 3, Seed: 10}, 0xa4e01c2d0923a78c},
	} {
		m, _, err := t2vec.Train(corpus, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := EncoderFingerprint(m)
		if err != nil {
			t.Fatal(err)
		}
		if fp != c.want {
			t.Errorf("%+v: fingerprint %#016x, want %#016x", c.cfg, fp, c.want)
		}
	}
}
