package engine

import (
	"container/list"
	"sync"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// cacheKey identifies one full (unpaged) top-k ranking. gen is the id of
// the generation the ranking was computed in, which moves with every load
// and every policy or encoder swap (generation.go): a ranking is never
// served under a store or an artifact other than its own, and rankings of
// superseded generations age out of the LRU (each publication purges it
// too). Every spec dimension that changes the ranking is part of the key —
// measure/algorithm names and their parameter overrides, k, the spatial
// filter, distinct collapsing, the ann prefilter's knobs — while
// offset/limit are deliberately absent: pages are windows over the cached
// full ranking, so every page of a query hits the same entry.
type cacheKey struct {
	gen       uint64
	measure   string
	algo      string
	k         int
	params    Params
	filter    geo.Rect
	hasFilter bool
	distinct  bool
	// bound/hasBound key the wire-propagated k-th-best bound: a bounded
	// query's ranking may legitimately omit matches beyond the bound, so
	// it must never be served to a query with a different (or no) bound.
	bound     float64
	hasBound  bool
	annCands  int
	annProbes int
	digest    uint64
}

// cacheKeyFor derives the ranking's cache key from the query spec and the
// id of the query's pinned generation.
func (e *Engine) cacheKeyFor(q Query, gen uint64) cacheKey {
	key := cacheKey{
		gen:      gen,
		measure:  q.Measure,
		algo:     q.Algorithm,
		k:        q.K,
		params:   q.Params,
		distinct: q.Distinct,
		digest:   q.Q.Digest(),
	}
	if q.ANN != nil {
		key.annCands, key.annProbes = q.ANN.Candidates, q.ANN.Probes
	}
	if q.Filter != nil {
		key.hasFilter, key.filter = true, *q.Filter
	}
	if q.Bound != nil {
		key.hasBound, key.bound = true, *q.Bound
	}
	return key
}

// resultCache is a mutex-guarded LRU of top-k answers. Cached match slices
// are shared between hits and must be treated as read-only by callers.
// Entries keep the query trajectory itself: the 64-bit digest routes the
// lookup, the point-wise comparison on hit makes a collision (constructible
// for FNV against untrusted queries) a miss instead of a wrong answer.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[cacheKey]*list.Element
}

type cacheEntry struct {
	key   cacheKey
	query traj.Trajectory
	val   []Match
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{cap: capacity, ll: list.New(), items: make(map[cacheKey]*list.Element)}
}

func (c *resultCache) get(k cacheKey, q traj.Trajectory) ([]Match, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok || !el.Value.(*cacheEntry).query.Equal(q) {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

func (c *resultCache) put(k cacheKey, q traj.Trajectory, v []Match) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		ent := el.Value.(*cacheEntry)
		ent.query = q
		ent.val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, query: q, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// purge drops every entry. Called on every publication: the new
// generation's id makes old entries unreachable anyway, so purging frees
// their LRU slots rather than letting dead entries crowd out fresh answers.
func (c *resultCache) purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}
