package t2vec

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"simsub/internal/traj"
)

// Encoder-compatibility goldens. The model files under testdata/ were
// written by Save, and the embedding bits below computed by Embed, before
// the GRU weights were stacked into one kernel. Persisted embeddings are
// reused across restarts under the encoder's fingerprint (a hash of Save),
// and ANN buckets are functions of embedding bits, so seeded training must
// still write the same bytes and every model must still embed to the same
// bits. The values are amd64 bits: architectures where the compiler fuses
// multiply-adds compute other (equally valid) bits, so the goldens skip
// there.

var goldenModels = []struct {
	name string
	cfg  TrainConfig
	emb  []uint64 // Float64bits of Embed(goldenQuery())
}{
	{"coord", TrainConfig{Hidden: 16, Epochs: 2, Seed: 5}, []uint64{
		0x3fd1da31de34a313, 0x3fd6109ad3be2c9c, 0x3fc3c7fd577e20d0, 0xbfc9d3217b24141a,
		0x3fb3a32d186679b9, 0x3fb2ee96e0f6350f, 0xbf9ddac896007d96, 0x3fb1faa8fcec2445,
		0xbfd330c87eb8adcb, 0x3fc47c0032bfc279, 0xbfd8523726cf105a, 0x3fb6d6ac979e721f,
		0xbf640a1d7f6def73, 0x3fca7a85476d1661, 0xbfb3d9392325e40c, 0x3fb308d6d245dd76,
	}},
	{"token", TrainConfig{Hidden: 7, Epochs: 2, TokenGrid: 4, EmbedDim: 3, Seed: 6}, []uint64{
		0x3fd584da68b8c2d0, 0x3fb2c29b6450b7f8, 0x3fdaca8d743b50c0, 0xbfc4421c16fd73ee,
		0x3fd0daba30a57bf2, 0xbfc8900de626edf2, 0x3fdf2cca202bf7c0,
	}},
}

func skipUnlessAMD64(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are amd64's, this is %s", runtime.GOARCH)
	}
}

func goldenCorpus() []traj.Trajectory {
	rng := rand.New(rand.NewSource(41))
	corpus := make([]traj.Trajectory, 6)
	for i := range corpus {
		corpus[i] = randWalk(rng, 12)
	}
	return corpus
}

func goldenQuery() traj.Trajectory { return randWalk(rand.New(rand.NewSource(42)), 20) }

func checkEmbedBits(t *testing.T, what string, m *Model, want []uint64) {
	t.Helper()
	got := m.Embed(goldenQuery())
	if len(got) != len(want) {
		t.Fatalf("%s: embedding has %d values, want %d", what, len(got), len(want))
	}
	for i, v := range got {
		if math.Float64bits(v) != want[i] {
			t.Fatalf("%s: embedding[%d] = %#016x, want %#016x", what, i, math.Float64bits(v), want[i])
		}
	}
}

func TestGoldenTrainedModelBits(t *testing.T) {
	skipUnlessAMD64(t)
	for _, g := range goldenModels {
		m, _, err := Train(goldenCorpus(), g.cfg)
		if err != nil {
			t.Fatalf("%s: Train: %v", g.name, err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", g.name, err)
		}
		file, err := os.ReadFile(filepath.Join("testdata", "golden_"+g.name+".t2vec"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), file) {
			t.Errorf("%s: seeded training no longer writes the golden model file", g.name)
		}
		checkEmbedBits(t, g.name+" trained", m, g.emb)
	}
}

func TestGoldenModelFileLoadsAndEmbeds(t *testing.T) {
	skipUnlessAMD64(t)
	for _, g := range goldenModels {
		m, err := LoadFile(filepath.Join("testdata", "golden_"+g.name+".t2vec"))
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		checkEmbedBits(t, g.name+" loaded", m, g.emb)
	}
}
