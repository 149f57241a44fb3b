// Package ann is an approximate-nearest-neighbor index over trajectory
// embeddings: multi-probe locality-sensitive hashing with a tunable bucket
// width, in the spirit of Tunable-LSH (Aluç, Özsu, Daudjee, VLDB J. 2019).
//
// The index is the coarse half of the engine's candidate-generation split:
// it proposes a small candidate list by embedding distance and the exact
// lower-bound cascade reranks it (see core.Database.ScanPrunedSourceCtx). Accuracy
// therefore only needs to hold at the candidate-set level — the index
// ranks every probed candidate by its EXACT embedding distance before
// returning, and falls back to a full embedding scan when probing
// under-fills the request, so Search degrades toward exact embedding-space
// retrieval rather than toward garbage.
//
// Scheme: L hash tables, each keyed by a composite of H quantized random
// projections h(v) = floor((a·v + b) / w). The width w is auto-tuned from
// sampled pairwise distances of the indexed vectors (the "tunable" knob:
// a width tracking the data's distance scale keeps bucket occupancy useful
// as the corpus changes, where a fixed width degenerates to one giant or
// all-singleton buckets). Multi-probe search additionally visits the
// buckets reachable by perturbing the least-confident hash coordinates
// (those closest to a quantization boundary), recovering neighbors that
// straddle a boundary without paying for more tables.
//
// An Index is immutable after Build and safe for concurrent Search.
package ann

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
)

// Config tunes Build. The zero value selects the documented defaults.
type Config struct {
	// Tables is the number of hash tables L (default 6).
	Tables int
	// Hashes is the number of projections per table H (default 4).
	Hashes int
	// Width is the quantization width w; 0 auto-tunes from sampled
	// pairwise distances (the default, and almost always what you want).
	Width float64
	// Seed drives projection sampling (default 1). Builds are
	// deterministic for a given (Seed, vectors) pair.
	Seed int64
}

func (c *Config) fill() {
	if c.Tables <= 0 {
		c.Tables = 6
	}
	if c.Hashes <= 0 {
		c.Hashes = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Index is a built ANN index over a fixed set of vectors.
type Index struct {
	dim    int
	vecs   [][]float64
	width  float64
	tables []table
}

type table struct {
	// projs is Hashes rows of dim projection coefficients; offs the
	// per-hash quantization offsets.
	projs [][]float64
	offs  []float64
	bkts  map[uint64][]int32
}

// Build indexes vecs (the i-th search result refers to vecs[i]). Vectors
// are referenced, not copied, and must stay immutable. Vectors whose
// length differs from dim (not yet embedded, or embedded by a stale
// encoder) are skipped: they are unreachable through the index, exactly as
// they are incomparable in embedding space. Returns nil when dim <= 0.
func Build(vecs [][]float64, dim int, cfg Config) *Index {
	if dim <= 0 {
		return nil
	}
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := &Index{dim: dim, vecs: vecs, width: cfg.Width}
	if idx.width <= 0 {
		idx.width = tuneWidth(vecs, dim, rng)
	}
	idx.tables = make([]table, cfg.Tables)
	for ti := range idx.tables {
		t := table{
			projs: make([][]float64, cfg.Hashes),
			offs:  make([]float64, cfg.Hashes),
			bkts:  make(map[uint64][]int32),
		}
		for hi := range t.projs {
			p := make([]float64, dim)
			for d := range p {
				p[d] = rng.NormFloat64()
			}
			t.projs[hi] = p
			t.offs[hi] = rng.Float64() * idx.width
		}
		code := make([]int64, cfg.Hashes)
		for vi, v := range vecs {
			if len(v) != dim {
				continue
			}
			t.quantize(v, idx.width, code, nil)
			k := keyOf(code)
			t.bkts[k] = append(t.bkts[k], int32(vi))
		}
		idx.tables[ti] = t
	}
	return idx
}

// tuneWidth picks the quantization width from the distance scale of the
// data: the mean Euclidean distance over up to 256 sampled pairs, halved
// so that near-neighbor pairs (well below the mean) tend to share cells
// while the bulk of the corpus does not. Falls back to 1 when there is
// nothing to sample.
func tuneWidth(vecs [][]float64, dim int, rng *rand.Rand) float64 {
	var pool []int
	for i, v := range vecs {
		if len(v) == dim {
			pool = append(pool, i)
		}
	}
	if len(pool) < 2 {
		return 1
	}
	var sum float64
	var n int
	for s := 0; s < 256; s++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		if a == b {
			continue
		}
		sum += euclid(vecs[a], vecs[b])
		n++
	}
	if n == 0 || sum == 0 {
		return 1
	}
	w := sum / float64(n) / 2
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return 1
	}
	return w
}

// quantize writes the table's hash code of v into code; when frac is
// non-nil it also records each coordinate's distance to its nearest
// quantization boundary in [0, 0.5] (small = least confident), which
// orders the multi-probe perturbations.
func (t *table) quantize(v []float64, width float64, code []int64, frac []float64) {
	for hi, p := range t.projs {
		var dot float64
		for d, c := range p {
			dot += c * v[d]
		}
		x := (dot + t.offs[hi]) / width
		f := math.Floor(x)
		code[hi] = int64(f)
		if frac != nil {
			r := x - f // in [0,1): distance above the lower boundary
			frac[hi] = math.Min(r, 1-r)
		}
	}
}

// keyOf folds a hash code into a 64-bit bucket key (FNV-1a).
func keyOf(code []int64) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range code {
		u := uint64(c)
		for s := 0; s < 64; s += 8 {
			h ^= (u >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// Width returns the (possibly auto-tuned) quantization width.
func (ix *Index) Width() float64 { return ix.width }

// Len returns the number of vectors the index was built over.
func (ix *Index) Len() int { return len(ix.vecs) }

// Search returns up to want vector indices ranked by exact embedding
// distance to q, ascending. probes is the number of buckets visited per
// table (minimum 1; extra probes visit the buckets reachable by perturbing
// the least-confident hash coordinate by ±1). When the probed buckets
// yield fewer than want distinct candidates the search widens to a full
// embedding scan, so Search never returns fewer than min(want, indexed)
// results. The returned slice is freshly allocated.
func (ix *Index) Search(q []float64, want, probes int) []int {
	if ix == nil || want <= 0 || len(q) != ix.dim {
		return nil
	}
	if probes < 1 {
		probes = 1
	}
	seen := make(map[int32]struct{})
	code := make([]int64, 0, 8)
	frac := make([]float64, 0, 8)
	for ti := range ix.tables {
		t := &ix.tables[ti]
		code = code[:len(t.projs)]
		frac = frac[:len(t.projs)]
		t.quantize(q, ix.width, code, frac)
		ix.gather(t, code, seen)
		if probes > 1 {
			// visit perturbed buckets in increasing boundary distance: the
			// coordinates most likely to have quantized a true neighbor into
			// the adjacent cell come first
			order := make([]int, len(frac))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return frac[order[a]] < frac[order[b]] })
			left := probes - 1
			for _, hi := range order {
				if left == 0 {
					break
				}
				for _, delta := range []int64{1, -1} {
					if left == 0 {
						break
					}
					code[hi] += delta
					ix.gather(t, code, seen)
					code[hi] -= delta
					left--
				}
			}
		}
	}
	if len(seen) < want {
		return ix.scanAll(q, want)
	}
	cands := make([]int, 0, len(seen))
	for vi := range seen {
		cands = append(cands, int(vi))
	}
	return ix.rank(q, cands, want)
}

func (ix *Index) gather(t *table, code []int64, seen map[int32]struct{}) {
	for _, vi := range t.bkts[keyOf(code)] {
		seen[vi] = struct{}{}
	}
}

// scanAll is the exact-embedding fallback: rank every indexed vector.
func (ix *Index) scanAll(q []float64, want int) []int {
	cands := make([]int, 0, len(ix.vecs))
	for vi, v := range ix.vecs {
		if len(v) == ix.dim {
			cands = append(cands, vi)
		}
	}
	return ix.rank(q, cands, want)
}

// rank returns the want candidates nearest q by exact embedding distance,
// ascending, ties broken by the lower index so results are deterministic.
// It keeps the best want in a bounded max-heap and sorts only those, not
// every candidate: O(n log want) where the probed buckets, or the scanAll
// fallback's whole index, hold n.
func (ix *Index) rank(q []float64, cands []int, want int) []int {
	h := make(worstFirst, 0, min(want, len(cands)))
	for _, vi := range cands {
		s := scored{vi: vi, d: euclid(ix.vecs[vi], q)}
		switch {
		case len(h) < cap(h):
			if h = append(h, s); len(h) == cap(h) {
				heap.Init(&h)
			}
		case s.before(h[0]):
			h[0] = s
			heap.Fix(&h, 0)
		}
	}
	sort.Slice(h, func(a, b int) bool { return h[a].before(h[b]) })
	out := make([]int, len(h))
	for i, s := range h {
		out[i] = s.vi
	}
	return out
}

type scored struct {
	vi int
	d  float64
}

// before is the ranking order: nearer first, then the lower index.
func (a scored) before(b scored) bool { return a.d < b.d || a.d == b.d && a.vi < b.vi }

// worstFirst is a heap.Interface whose root ranks last.
type worstFirst []scored

func (h worstFirst) Len() int           { return len(h) }
func (h worstFirst) Less(i, j int) bool { return h[j].before(h[i]) }
func (h worstFirst) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *worstFirst) Push(x any)        { *h = append(*h, x.(scored)) }
func (h *worstFirst) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
