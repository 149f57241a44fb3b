package ann

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func randVecs(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for d := range v {
			v[d] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// exactTopK is the brute-force reference ranking.
func exactTopK(vecs [][]float64, q []float64, k int) []int {
	ix := Build(vecs, len(q), Config{})
	return ix.scanAll(q, k)
}

func TestSearchExactWhenUnderfilled(t *testing.T) {
	// want close to the corpus size forces the full-scan fallback: results
	// must then be the exact embedding-space ranking.
	vecs := randVecs(50, 8, 1)
	ix := Build(vecs, 8, Config{})
	q := vecs[7]
	got := ix.Search(q, 49, 2)
	wantIDs := exactTopK(vecs, q, 49)
	if len(got) != len(wantIDs) {
		t.Fatalf("got %d results, want %d", len(got), len(wantIDs))
	}
	for i := range got {
		if got[i] != wantIDs[i] {
			t.Fatalf("rank %d: got %d want %d", i, got[i], wantIDs[i])
		}
	}
	if got[0] != 7 {
		t.Fatalf("self should rank first, got %d", got[0])
	}
}

func TestSearchRecall(t *testing.T) {
	// clustered corpus: candidate sets from probing should capture most of
	// the true top-10 while visiting a subset of the corpus.
	rng := rand.New(rand.NewSource(2))
	const dim, n = 16, 1000
	centers := randVecs(20, dim, 3)
	vecs := make([][]float64, n)
	for i := range vecs {
		c := centers[i%len(centers)]
		v := make([]float64, dim)
		for d := range v {
			v[d] = c[d] + 0.1*rng.NormFloat64()
		}
		vecs[i] = v
	}
	ix := Build(vecs, dim, Config{})
	const k, want = 10, 100
	var hit, total int
	for qi := 0; qi < 20; qi++ {
		q := vecs[qi*37]
		truth := exactTopK(vecs, q, k)
		got := ix.Search(q, want, 4)
		in := make(map[int]bool, len(got))
		for _, vi := range got {
			in[vi] = true
		}
		for _, vi := range truth {
			total++
			if in[vi] {
				hit++
			}
		}
	}
	recall := float64(hit) / float64(total)
	if recall < 0.95 {
		t.Fatalf("recall@%d = %.3f, want >= 0.95", k, recall)
	}
}

func TestSearchSkipsMismatchedVectors(t *testing.T) {
	vecs := randVecs(20, 8, 4)
	vecs[3] = nil                // not embedded
	vecs[5] = make([]float64, 4) // stale encoder dimensionality
	ix := Build(vecs, 8, Config{})
	got := ix.Search(vecs[0], 20, 4)
	if len(got) != 18 {
		t.Fatalf("got %d results, want 18 (mismatched vectors excluded)", len(got))
	}
	for _, vi := range got {
		if vi == 3 || vi == 5 {
			t.Fatalf("mismatched vector %d surfaced", vi)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	vecs := randVecs(100, 8, 5)
	a := Build(vecs, 8, Config{Seed: 9})
	b := Build(vecs, 8, Config{Seed: 9})
	q := vecs[42]
	ga, gb := a.Search(q, 10, 3), b.Search(q, 10, 3)
	if len(ga) != len(gb) {
		t.Fatalf("lengths differ: %d vs %d", len(ga), len(gb))
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("result %d differs: %d vs %d", i, ga[i], gb[i])
		}
	}
}

// TestRankMatchesFullSort holds the bounded-heap selection to the full sort
// it replaced: the same indices in the same order, ties by ascending index,
// for every want from 1 past the candidate count. Vectors are drawn from a
// small integer lattice, so many candidates share a distance.
func TestRankMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(3)
		vecs := make([][]float64, 1+rng.Intn(60))
		for i := range vecs {
			vecs[i] = make([]float64, dim)
			for d := range vecs[i] {
				vecs[i][d] = float64(rng.Intn(3))
			}
		}
		ix := &Index{dim: dim, vecs: vecs}
		q := make([]float64, dim)
		for d := range q {
			q[d] = float64(rng.Intn(3))
		}
		// a random subset, in random order, as the probed buckets give it
		cands := rng.Perm(len(vecs))[:1+rng.Intn(len(vecs))]
		sorted := append([]int(nil), cands...)
		sort.Slice(sorted, func(a, b int) bool {
			da, db := euclid(vecs[sorted[a]], q), euclid(vecs[sorted[b]], q)
			if da != db {
				return da < db
			}
			return sorted[a] < sorted[b]
		})
		for want := 1; want <= len(cands)+1; want++ {
			got := ix.rank(q, cands, want)
			ref := sorted[:min(want, len(sorted))]
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("trial %d want %d: rank %v, full sort %v", trial, want, got, ref)
			}
		}
	}
}
