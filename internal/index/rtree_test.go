package index

import (
	"math/rand"
	"sort"
	"testing"

	"simsub/internal/geo"
)

func randomEntries(seed int64, n int) []Entry {
	rng := rand.New(rand.NewSource(seed))
	es := make([]Entry, n)
	for i := range es {
		x, y := rng.Float64()*100, rng.Float64()*100
		w, h := rng.Float64()*5, rng.Float64()*5
		es[i] = Entry{Rect: geo.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, Ref: i}
	}
	return es
}

// bruteSearch is the oracle: linear scan.
func bruteSearch(es []Entry, r geo.Rect) []int {
	var out []int
	for _, e := range es {
		if e.Rect.Intersects(r) {
			out = append(out, e.Ref)
		}
	}
	sort.Ints(out)
	return out
}

func sortedSearch(t *RTree, r geo.Rect) []int {
	got := t.Search(r, nil)
	sort.Ints(got)
	return got
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBulkLoadSearchMatchesBruteForce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 500} {
		es := randomEntries(int64(n)+1, n)
		tree := BulkLoad(es, 16)
		if tree.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tree.Len())
		}
		rng := rand.New(rand.NewSource(99))
		for q := 0; q < 30; q++ {
			x, y := rng.Float64()*100, rng.Float64()*100
			r := geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*30, MaxY: y + rng.Float64()*30}
			got := sortedSearch(tree, r)
			want := bruteSearch(es, r)
			if !equalInts(got, want) {
				t.Fatalf("n=%d query %v: got %v, want %v", n, r, got, want)
			}
		}
	}
}

func TestSearchEmptyTree(t *testing.T) {
	tree := BulkLoad(nil, 16)
	if got := tree.Search(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, nil); len(got) != 0 {
		t.Errorf("empty tree returned %v", got)
	}
	if !tree.Bounds().IsEmpty() {
		t.Error("empty tree should have empty bounds")
	}
}

func TestSearchDisjointRect(t *testing.T) {
	es := randomEntries(9, 50)
	tree := BulkLoad(es, 8)
	if got := tree.Search(geo.Rect{MinX: 500, MinY: 500, MaxX: 600, MaxY: 600}, nil); len(got) != 0 {
		t.Errorf("disjoint query returned %v", got)
	}
}

func TestTreeDepthGrowsLogarithmically(t *testing.T) {
	for _, c := range []struct{ n, fill, depth int }{{1, 16, 1}, {16, 16, 1}, {17, 16, 2}, {1000, 16, 3}, {1000, 8, 4}, {4096, 4, 6}} {
		if d := BulkLoad(randomEntries(10, c.n), c.fill).Depth(); d != c.depth {
			t.Errorf("%d entries at fan-out %d: depth %d, want ⌈log_fill n⌉ = %d", c.n, c.fill, d, c.depth)
		}
	}
}

func TestBoundsCoverEverything(t *testing.T) {
	es := randomEntries(11, 120)
	b := BulkLoad(es, 8).Bounds()
	for _, e := range es {
		if !b.ContainsRect(e.Rect) {
			t.Fatalf("bounds %v do not contain %v", b, e.Rect)
		}
	}
}

func TestSearchReuseBuffer(t *testing.T) {
	es := randomEntries(12, 100)
	tree := BulkLoad(es, 16)
	buf := make([]int, 0, 128)
	r := geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	out := tree.Search(r, buf[:0])
	if len(out) != 100 {
		t.Errorf("got %d results", len(out))
	}
}
