package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/index"
	"simsub/internal/traj"
)

// sortedInts returns a sorted copy: candidate lists are sets, and their
// order differs between one tree and a forest.
func sortedInts(xs []int) []int {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// bruteCandidates is the oracle of the forest tests: every trajectory whose
// MBR intersects the query's (and the filter, when there is one).
func bruteCandidates(metas []TrajMeta, q traj.Trajectory, filter *geo.Rect) []int {
	var out []int
	qr := q.MBR()
	for i, m := range metas {
		if m.MBR.Intersects(qr) && (filter == nil || m.MBR.Intersects(*filter)) {
			out = append(out, i)
		}
	}
	return out
}

// TestAppendForestMatchesOneTree grows databases with and without the index by
// random sequences of Appends and holds each view, new and old, to the
// candidate sets of one bulk-loaded tree and of brute-force MBR
// intersection.
func TestAppendForestMatchesOneTree(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts := make([]traj.Trajectory, 1500)
		metas := make([]TrajMeta, len(ts))
		for i := range ts {
			ts[i] = randTraj(rng, 2+rng.Intn(6)).Translate(rng.Float64()*60, rng.Float64()*60)
			ts[i].ID = i
			metas[i] = DeriveMeta(ts[i])
		}
		queries := make([]traj.Trajectory, 12)
		filters := make([]*geo.Rect, len(queries))
		for i := range queries {
			queries[i] = randTraj(rng, 3+rng.Intn(8)).Translate(rng.Float64()*60, rng.Float64()*60)
			if i%2 == 1 {
				x, y := rng.Float64()*50, rng.Float64()*50
				filters[i] = &geo.Rect{MinX: x, MinY: y, MaxX: x + 5 + rng.Float64()*30, MaxY: y + 5 + rng.Float64()*30}
			}
		}
		for _, withIndex := range []bool{true, false} {
			type pinned struct {
				db      *Database
				n       int
				answers [][]int
			}
			var old []pinned
			db := NewDatabase(nil, withIndex)
			for n := 0; n < len(ts); {
				// mostly small batches, now and then one larger than the store
				step := 1 + rng.Intn(40)
				if rng.Intn(8) == 0 {
					step = 1 + rng.Intn(400)
				}
				n = min(n+step, len(ts))
				db = db.Append(ts[:n], metas[:n])
				if db.Len() != n {
					t.Fatalf("seed %d index %v: Len %d after appending to %d", seed, withIndex, db.Len(), n)
				}
				one := NewDatabase(ts[:n], withIndex)
				answers := make([][]int, len(queries))
				for qi, q := range queries {
					got := sortedInts(db.Candidates(q, filters[qi]))
					answers[qi] = got
					if want := sortedInts(one.Candidates(q, filters[qi])); !slices.Equal(got, want) {
						t.Fatalf("seed %d index %v n %d query %d: grown view %v, built whole %v", seed, withIndex, n, qi, got, want)
					}
					if withIndex {
						if want := bruteCandidates(metas[:n], q, filters[qi]); !slices.Equal(got, want) {
							t.Fatalf("seed %d n %d query %d: forest %v, brute force %v", seed, n, qi, got, want)
						}
					}
					if filters[qi] == nil && !slices.Equal(got, sortedInts(db.Candidates(q, nil))) {
						t.Fatalf("seed %d index %v n %d query %d: Candidates and Candidates(nil) disagree", seed, withIndex, n, qi)
					}
				}
				if rng.Intn(6) == 0 {
					old = append(old, pinned{db, n, answers})
				}
				for i := 1; i < len(db.parts); i++ {
					a, b := db.parts[i-1], db.parts[i]
					if a.hi != b.lo || a.hi-a.lo <= 2*(b.hi-b.lo) {
						t.Fatalf("seed %d n %d: forest %v is not contiguous with each tree more than twice the next", seed, n, db.parts)
					}
				}
			}
			for _, p := range old {
				for qi, q := range queries {
					if got := sortedInts(p.db.Candidates(q, filters[qi])); p.db.Len() != p.n || !slices.Equal(got, p.answers[qi]) {
						t.Fatalf("seed %d index %v: the view of %d trajectories answers query %d with %v after later appends, %v before",
							seed, withIndex, p.n, qi, got, p.answers[qi])
					}
				}
			}
		}
	}
}

// TestAppendPackingWorkIsLogarithmic is the clock-free ingest measure: 32k
// trajectories arriving in 128-record batches keep the forest within
// ⌈log₂(N/batch)⌉+1 trees at every step and bulk-load at most
// 2·N·(log₂(N/batch)+1) entries in total, where one tree rebuilt per batch
// packs N²/(2·batch) — 129 times N here.
func TestAppendPackingWorkIsLogarithmic(t *testing.T) {
	const total, batch = 32 << 10, 128
	rng := rand.New(rand.NewSource(9))
	ts := make([]traj.Trajectory, total)
	metas := make([]TrajMeta, total)
	for i := range ts {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		ts[i] = traj.FromXY(x, y, x+rng.Float64(), y+rng.Float64())
		metas[i] = TrajMeta{N: 2, MBR: ts[i].MBR()}
	}
	db := NewDatabase(nil, true)
	for n := batch; n <= total; n += batch {
		db = db.Append(ts[:n], metas[:n])
		if limit := int(math.Ceil(math.Log2(float64(n)/batch))) + 1; len(db.parts) > limit {
			t.Fatalf("%d trajectories sit in %d trees, want at most %d", n, len(db.parts), limit)
		}
	}
	if limit := int(2 * total * (math.Log2(total/batch) + 1)); db.packed > limit {
		t.Fatalf("appending %d trajectories by %d packed %d entries, want at most %d", total, batch, db.packed, limit)
	}
	if db.packed < total {
		t.Fatalf("packed counts %d entries for %d trajectories: the counter misses bulk loads", db.packed, total)
	}
	// the counter counts what was packed: the trees hold N entries between them
	held := 0
	for _, p := range db.parts {
		held += p.tree.Len()
	}
	if held != total {
		t.Fatalf("the forest holds %d entries for %d trajectories", held, total)
	}
	q := traj.FromXY(100, 100, 140, 140)
	entries := make([]index.Entry, total)
	for i := range entries {
		entries[i] = index.Entry{Rect: metas[i].MBR, Ref: i}
	}
	if got, want := sortedInts(db.Candidates(q, nil)), sortedInts(index.BulkLoad(entries, rtreeFill).Search(q.MBR(), nil)); !slices.Equal(got, want) {
		t.Fatalf("forest of %d trees finds %d candidates, one tree %d", len(db.parts), len(got), len(want))
	}
}
