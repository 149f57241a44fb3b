// Package dataset synthesizes trajectory databases that stand in for the
// paper's three real datasets (§6.1), which are not redistributable:
//
//	Porto  — 1.7M taxi trajectories, uniform 15 s sampling, mean length ~60
//	Harbin — 1.2M taxi trajectories, non-uniform sampling, mean length ~120
//	Sports — 0.2M soccer player/ball trajectories, 10 Hz, mean length ~170
//
// Each generator reproduces the distinguishing statistics the SimSub
// algorithms are sensitive to — length distribution, sampling regularity
// and spatial structure (road-grid movement for the taxi datasets, smooth
// correlated motion on a bounded pitch for Sports) — inside the unit
// square. DESIGN.md records the substitution rationale. All generation is
// deterministic for a given seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// Kind selects a dataset family.
type Kind int

// The three dataset families of §6.1.
const (
	Porto Kind = iota
	Harbin
	Sports
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Porto:
		return "Porto"
	case Harbin:
		return "Harbin"
	case Sports:
		return "Sports"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindByName parses a dataset name (case-sensitive, as printed by String).
func KindByName(name string) (Kind, error) {
	switch name {
	case "Porto", "porto":
		return Porto, nil
	case "Harbin", "harbin":
		return Harbin, nil
	case "Sports", "sports":
		return Sports, nil
	}
	return 0, fmt.Errorf("dataset: unknown kind %q", name)
}

// MeanLen returns the family's mean trajectory length.
func (k Kind) MeanLen() int {
	switch k {
	case Harbin:
		return 120
	case Sports:
		return 170
	default:
		return 60
	}
}

// Config controls generation.
type Config struct {
	// Kind selects the dataset family.
	Kind Kind
	// N is the number of trajectories.
	N int
	// Seed seeds the generator (0 uses 1).
	Seed int64
	// MinLen/MaxLen bound trajectory lengths; zero values use the family's
	// defaults (mean length ±50%).
	MinLen, MaxLen int
}

func (c *Config) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	mean := c.Kind.MeanLen()
	if c.MinLen == 0 {
		c.MinLen = mean / 2
	}
	if c.MaxLen == 0 {
		c.MaxLen = mean * 3 / 2
	}
	if c.MinLen < 1 {
		c.MinLen = 1
	}
	if c.MaxLen < c.MinLen {
		c.MaxLen = c.MinLen
	}
}

// Generate synthesizes a trajectory database per the configuration.
// Trajectory IDs are assigned 0..N-1.
func Generate(cfg Config) []traj.Trajectory {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]traj.Trajectory, cfg.N)
	for i := range out {
		n := cfg.MinLen
		if cfg.MaxLen > cfg.MinLen {
			n += rng.Intn(cfg.MaxLen - cfg.MinLen + 1)
		}
		var t traj.Trajectory
		switch cfg.Kind {
		case Harbin:
			t = genRoad(rng, n, 15, true)
		case Sports:
			t = genField(rng, n, 0.1)
		default:
			t = genRoad(rng, n, 15, false)
		}
		t.ID = i
		out[i] = t
	}
	return out
}

// roadGridCells is the granularity of the synthetic road network. It is a
// power of two, which the constant below checks (it overflows otherwise), so
// that genRoad's offset into a cell is exact.
const roadGridCells = 64

const _ uint = -(roadGridCells & (roadGridCells - 1))

// offset returns x mod 1/roadGridCells for x ≥ 0, exactly, as math.Mod
// would: scaling by a power of two and flooring are exact, and x is at most
// twice the multiple subtracted from it (or that is 0), so by Sterbenz's
// lemma the difference is too.
func offset(x float64) float64 {
	return x - math.Floor(x*roadGridCells)/roadGridCells
}

// genRoad simulates taxi movement on a Manhattan-style road grid inside the
// unit square: the vehicle travels along axis-aligned streets at a jittered
// speed, turning at intersections with some probability. With nonUniform,
// sampling intervals are log-normal (Harbin's irregular GPS reports);
// otherwise they are a fixed interval seconds apart (Porto's 15 s).
func genRoad(rng *rand.Rand, n int, interval float64, nonUniform bool) traj.Trajectory {
	cell := 1.0 / roadGridCells
	// start at a random intersection
	x := float64(rng.Intn(roadGridCells)) * cell
	y := float64(rng.Intn(roadGridCells)) * cell
	// heading: 0 +x, 1 +y, 2 -x, 3 -y
	heading := rng.Intn(4)
	speed := 0.002 + rng.Float64()*0.004 // cells per second, in unit space
	pts := make([]geo.Point, 0, n)
	now := rng.Float64() * 1e6
	for len(pts) < n {
		pts = append(pts, geo.Point{X: x, Y: y, T: now})
		dt := interval
		if nonUniform {
			// log-normal around the interval: occasional long gaps
			dt = interval * math.Exp(rng.NormFloat64()*0.6)
		}
		now += dt
		dist := speed * dt * (0.8 + 0.4*rng.Float64())
		for dist > 0 {
			// distance to the next intersection along the heading
			var toNext float64
			switch heading {
			case 0:
				toNext = cell - offset(x)
			case 1:
				toNext = cell - offset(y)
			case 2:
				toNext = offset(x)
				if toNext == 0 {
					toNext = cell
				}
			default:
				toNext = offset(y)
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
			// reflect at the boundary, else maybe turn at intersections
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

// genField simulates smooth player/ball movement on a bounded pitch with an
// Ornstein-Uhlenbeck velocity process sampled every dt seconds, reflected
// at the pitch boundary.
func genField(rng *rand.Rand, n int, dt float64) traj.Trajectory {
	x, y := rng.Float64(), rng.Float64()
	vx, vy := 0.0, 0.0
	const (
		theta = 0.8  // mean reversion of velocity
		sigma = 0.05 // velocity noise, unit space per second
	)
	pts := make([]geo.Point, 0, n)
	now := rng.Float64() * 1e4
	for len(pts) < n {
		pts = append(pts, geo.Point{X: x, Y: y, T: now})
		vx += -theta*vx*dt + sigma*math.Sqrt(dt)*rng.NormFloat64()
		vy += -theta*vy*dt + sigma*math.Sqrt(dt)*rng.NormFloat64()
		x += vx * dt
		y += vy * dt
		if x < 0 {
			x, vx = -x, -vx
		}
		if x > 1 {
			x, vx = 2-x, -vx
		}
		if y < 0 {
			y, vy = -y, -vy
		}
		if y > 1 {
			y, vy = 2-y, -vy
		}
		now += dt
	}
	return traj.New(pts...)
}

// Pair is one effectiveness-experiment unit: a data trajectory and a query
// trajectory (§6.2(1) samples 10,000 such pairs).
type Pair struct {
	Data, Query traj.Trajectory
}

// Pairs samples count (data, query) pairs from the database uniformly,
// without pairing a trajectory with itself. Queries are clipped to
// [minQLen, maxQLen] points (0 disables clipping).
func Pairs(ts []traj.Trajectory, count int, minQLen, maxQLen int, seed int64) []Pair {
	if len(ts) < 2 || count <= 0 {
		return nil
	}
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Pair, 0, count)
	for len(out) < count {
		di := rng.Intn(len(ts))
		qi := rng.Intn(len(ts))
		if di == qi {
			continue
		}
		q := ts[qi]
		if maxQLen > 0 && q.Len() > maxQLen {
			start := rng.Intn(q.Len() - maxQLen + 1)
			q = q.Sub(start, start+maxQLen-1)
		}
		if minQLen > 0 && q.Len() < minQLen {
			continue
		}
		out = append(out, Pair{Data: ts[di], Query: q})
	}
	return out
}

// LengthGroup is a half-open query-length range [Lo, Hi).
type LengthGroup struct {
	Name   string
	Lo, Hi int
}

// PaperGroups returns the four query-length groups of §6.2(5):
// G1=[30,45), G2=[45,60), G3=[60,75), G4=[75,90).
func PaperGroups() []LengthGroup {
	return []LengthGroup{
		{Name: "G1", Lo: 30, Hi: 45},
		{Name: "G2", Lo: 45, Hi: 60},
		{Name: "G3", Lo: 60, Hi: 75},
		{Name: "G4", Lo: 75, Hi: 90},
	}
}

// GroupPairs samples pairs whose query length falls in the group, clipping
// queries from sampled trajectories when needed.
func GroupPairs(ts []traj.Trajectory, g LengthGroup, count int, seed int64) []Pair {
	if len(ts) < 2 || count <= 0 {
		return nil
	}
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Pair, 0, count)
	attempts := 0
	for len(out) < count && attempts < count*1000 {
		attempts++
		di := rng.Intn(len(ts))
		qi := rng.Intn(len(ts))
		if di == qi {
			continue
		}
		q := ts[qi]
		want := g.Lo + rng.Intn(g.Hi-g.Lo)
		if q.Len() < want {
			continue
		}
		start := rng.Intn(q.Len() - want + 1)
		out = append(out, Pair{Data: ts[di], Query: q.Sub(start, start+want-1)})
	}
	return out
}

// TotalPoints sums the point counts of a database (the x-axis of the
// efficiency figures).
func TotalPoints(ts []traj.Trajectory) int {
	n := 0
	for _, t := range ts {
		n += t.Len()
	}
	return n
}
