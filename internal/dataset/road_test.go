package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// genRoadMod is genRoad as it was with math.Mod, the reference its exact
// offset must reproduce bit for bit.
func genRoadMod(rng *rand.Rand, n int, interval float64, nonUniform bool) traj.Trajectory {
	cell := 1.0 / roadGridCells
	x := float64(rng.Intn(roadGridCells)) * cell
	y := float64(rng.Intn(roadGridCells)) * cell
	heading := rng.Intn(4)
	speed := 0.002 + rng.Float64()*0.004
	pts := make([]geo.Point, 0, n)
	now := rng.Float64() * 1e6
	for len(pts) < n {
		pts = append(pts, geo.Point{X: x, Y: y, T: now})
		dt := interval
		if nonUniform {
			dt = interval * math.Exp(rng.NormFloat64()*0.6)
		}
		now += dt
		dist := speed * dt * (0.8 + 0.4*rng.Float64())
		for dist > 0 {
			var toNext float64
			switch heading {
			case 0:
				toNext = cell - math.Mod(x, cell)
			case 1:
				toNext = cell - math.Mod(y, cell)
			case 2:
				toNext = math.Mod(x, cell)
				if toNext == 0 {
					toNext = cell
				}
			default:
				toNext = math.Mod(y, cell)
				if toNext == 0 {
					toNext = cell
				}
			}
			step := math.Min(dist, toNext)
			switch heading {
			case 0:
				x += step
			case 1:
				y += step
			case 2:
				x -= step
			default:
				y -= step
			}
			dist -= step
			atIntersection := step == toNext
			if x <= 0 || x >= 1 || y <= 0 || y >= 1 {
				x = math.Min(1, math.Max(0, x))
				y = math.Min(1, math.Max(0, y))
				heading = (heading + 2) % 4
			} else if atIntersection && rng.Float64() < 0.35 {
				if rng.Float64() < 0.5 {
					heading = (heading + 1) % 4
				} else {
					heading = (heading + 3) % 4
				}
			}
		}
	}
	return traj.New(pts...)
}

// TestGenRoadMatchesMod: Generate's road families are, bit for bit, what
// they were when genRoad stepped with math.Mod.
func TestGenRoadMatchesMod(t *testing.T) {
	for _, kind := range []Kind{Porto, Harbin} {
		for _, seed := range []int64{1, 3, 77} {
			cfg := Config{Kind: kind, N: 400, Seed: seed}
			got := Generate(cfg)
			cfg.fill()
			rng := rand.New(rand.NewSource(cfg.Seed))
			for i, tr := range got {
				n := cfg.MinLen + rng.Intn(cfg.MaxLen-cfg.MinLen+1)
				want := genRoadMod(rng, n, 15, kind == Harbin)
				if len(tr.Points) != len(want.Points) {
					t.Fatalf("%v seed %d record %d: %d points, reference %d", kind, seed, i, len(tr.Points), len(want.Points))
				}
				for j, p := range tr.Points {
					q := want.Points[j]
					if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) || math.Float64bits(p.T) != math.Float64bits(q.T) {
						t.Fatalf("%v seed %d record %d point %d: %+v, reference %+v", kind, seed, i, j, p, q)
					}
				}
			}
		}
	}
}

// TestCorpusDigests pins the NDJSON bytes of one corpus per family, at the
// digests they had before genRoad stepped without math.Mod and AppendFloat
// made its own digits. The
// benchmark's clock-free metrics (approx_ratio, mean_rank, recall_at_k,
// disk_bytes_per_point) are functions of these inputs, so a change to
// generation or to the encoder that moves a byte shows here first.
func TestCorpusDigests(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		want string
	}{
		{Porto, "e57268fb79a704c659aa59e97627b2d51caf15e1af1958800853b99498f5d619"},
		{Harbin, "0a175a5512dec3e88219400722514e24eb528eb5f0c0a0704c9ef14741813c8c"},
		{Sports, "cfa3e81c6b8d6aaeb45de880132b947c3879d93daf90e12a0092a4c7902ce38a"},
	} {
		var buf bytes.Buffer
		if err := traj.WriteNDJSON(&buf, Generate(Config{Kind: c.kind, N: 500, Seed: 11})); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%v: NDJSON digest %s, want %s", c.kind, got, c.want)
		}
	}
}
