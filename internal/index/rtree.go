// Package index provides the Bounding Box R-tree index of §6.2(4): data
// trajectories are indexed by their MBRs, and a query prunes every
// trajectory whose MBR does not intersect the query trajectory's MBR
// (following the Torch and seed-guided-metric-learning systems the paper
// cites).
//
// A tree is built once, by STR bulk loading (Leutenegger et al.), and never
// modified: a growing database (core.Database.Append) keeps a forest of
// bulk-loaded trees and merges the youngest ones by bulk-loading their
// union. The tests hold every tree to a brute-force intersection scan.
//
// What the filter promises: the candidates of a query are exactly the
// trajectories whose MBR intersects the query's MBR. A query that meets no
// stored MBR has no candidates, so a top-k through the index can return
// fewer than k matches, or none; only a scan over every trajectory (no
// index) always fills k from a store that holds k non-empty trajectories.
package index

import (
	"cmp"
	"math"
	"slices"

	"simsub/internal/geo"
)

// Entry is an indexed item: a bounding rectangle with an opaque integer
// reference (typically a trajectory ID or slice offset).
type Entry struct {
	Rect geo.Rect
	Ref  int
}

// node is an R-tree node; leaves hold entries, internal nodes hold children.
type node struct {
	rect     geo.Rect
	leaf     bool
	entries  []Entry
	children []*node
}

// RTree is an in-memory R-tree over rectangles.
type RTree struct {
	root *node
	size int
}

// Len returns the number of indexed entries.
func (t *RTree) Len() int { return t.size }

// Bounds returns the MBR of everything indexed.
func (t *RTree) Bounds() geo.Rect { return t.root.rect }

// BulkLoad builds an R-tree from the entries with Sort-Tile-Recursive
// packing: entries are sorted by center x, partitioned into vertical slices,
// each slice sorted by center y and cut into full leaves. This yields a
// well-packed tree in O(n log n). maxFill is the node fan-out (at least 4;
// a typical value is 16-64). The entries slice is not retained.
func BulkLoad(entries []Entry, maxFill int) *RTree {
	maxFill = max(maxFill, 4)
	if len(entries) == 0 {
		return &RTree{root: &node{leaf: true, rect: geo.EmptyRect()}}
	}

	// leaf level
	items := make([]keyed, len(entries))
	for i, e := range entries {
		c := e.Rect.Center()
		items[i] = keyed{c.X, c.Y, i}
	}
	var level []*node
	strTile(items, maxFill, func(run []keyed) {
		leaf := &node{leaf: true, entries: make([]Entry, len(run))}
		for i, it := range run {
			leaf.entries[i] = entries[it.i]
		}
		leaf.recomputeRect()
		level = append(level, leaf)
	})
	// pack upper levels the same way until one root remains
	for len(level) > 1 {
		items = items[:len(level)]
		for i, n := range level {
			c := n.rect.Center()
			items[i] = keyed{c.X, c.Y, i}
		}
		var parents []*node
		strTile(items, maxFill, func(run []keyed) {
			p := &node{children: make([]*node, len(run))}
			for i, it := range run {
				p.children[i] = level[it.i]
			}
			p.recomputeRect()
			parents = append(parents, p)
		})
		level = parents
	}
	return &RTree{root: level[0], size: len(entries)}
}

// keyed stands for the i-th item of the level being packed, with its
// rectangle's center computed once: the sorts compare plain floats and move
// 24 bytes, whatever the item is.
type keyed struct {
	x, y float64
	i    int
}

// strTile is one level of Sort-Tile-Recursive packing: it sorts items by
// center x, cuts them into vertical slices of about sqrt(groups) groups
// each, sorts every slice by center y and hands emit each run of at most
// maxFill items — one node's worth — in order. It reorders items in place.
func strTile(items []keyed, maxFill int, emit func(run []keyed)) {
	groups := (len(items) + maxFill - 1) / maxFill
	perSlice := int(math.Ceil(math.Sqrt(float64(groups)))) * maxFill
	slices.SortFunc(items, func(a, b keyed) int { return cmp.Compare(a.x, b.x) })
	for s := 0; s < len(items); s += perSlice {
		slice := items[s:min(s+perSlice, len(items))]
		slices.SortFunc(slice, func(a, b keyed) int { return cmp.Compare(a.y, b.y) })
		for o := 0; o < len(slice); o += maxFill {
			emit(slice[o:min(o+maxFill, len(slice))])
		}
	}
}

func (n *node) recomputeRect() {
	r := geo.EmptyRect()
	if n.leaf {
		for _, e := range n.entries {
			r = r.Union(e.Rect)
		}
	} else {
		for _, c := range n.children {
			r = r.Union(c.rect)
		}
	}
	n.rect = r
}

// Search appends to out the refs of all entries whose rectangles intersect
// r, and returns the result. Order is unspecified.
func (t *RTree) Search(r geo.Rect, out []int) []int {
	return searchNode(t.root, r, out)
}

func searchNode(n *node, r geo.Rect, out []int) []int {
	if !n.rect.Intersects(r) {
		return out
	}
	if n.leaf {
		for _, e := range n.entries {
			if e.Rect.Intersects(r) {
				out = append(out, e.Ref)
			}
		}
		return out
	}
	for _, c := range n.children {
		out = searchNode(c, r, out)
	}
	return out
}

// Depth returns the height of the tree (1 for a lone leaf root).
func (t *RTree) Depth() int {
	d := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}
