// Package index provides the Bounding Box R-tree index of §6.2(4): data
// trajectories are indexed by their MBRs, and a query prunes every
// trajectory whose MBR does not intersect the query trajectory's MBR
// (following the Torch and seed-guided-metric-learning systems the paper
// cites).
//
// The tree is built by one-shot STR bulk loading (Leutenegger et al.) and
// is never modified afterwards by anything that serves queries: a growing
// database (core.Database.Append) keeps a forest of bulk-loaded trees and
// merges the youngest ones by bulk-loading their union. Insert, Guttman's
// dynamic insertion with quadratic splits, is kept as the textbook
// counterpart the tests compare against; nothing on the serving path
// calls it.
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
	root    *node
	maxFill int
	minFill int
	size    int
}

// New creates an empty R-tree with the given maximum node fan-out
// (minimum 4; a typical value is 16-64).
func New(maxFill int) *RTree {
	if maxFill < 4 {
		maxFill = 4
	}
	return &RTree{
		root:    &node{leaf: true, rect: geo.EmptyRect()},
		maxFill: maxFill,
		minFill: maxFill * 2 / 5,
	}
}

// Len returns the number of indexed entries.
func (t *RTree) Len() int { return t.size }

// Bounds returns the MBR of everything indexed.
func (t *RTree) Bounds() geo.Rect { return t.root.rect }

// BulkLoad builds an R-tree from the entries with Sort-Tile-Recursive
// packing: entries are sorted by center x, partitioned into vertical slices,
// each slice sorted by center y and cut into full leaves. This yields a
// well-packed tree in O(n log n). The entries slice is not retained.
func BulkLoad(entries []Entry, maxFill int) *RTree {
	t := New(maxFill)
	if len(entries) == 0 {
		return t
	}
	t.size = len(entries)

	// leaf level
	items := make([]keyed, len(entries))
	for i, e := range entries {
		c := e.Rect.Center()
		items[i] = keyed{c.X, c.Y, i}
	}
	var level []*node
	strTile(items, t.maxFill, func(run []keyed) {
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
		strTile(items, t.maxFill, func(run []keyed) {
			p := &node{children: make([]*node, len(run))}
			for i, it := range run {
				p.children[i] = level[it.i]
			}
			p.recomputeRect()
			parents = append(parents, p)
		})
		level = parents
	}
	t.root = level[0]
	return t
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

// Insert adds an entry, splitting overflowing nodes with the quadratic
// split heuristic (Guttman).
func (t *RTree) Insert(e Entry) {
	t.size++
	split := t.insert(t.root, e)
	if split != nil {
		// grow the tree: new root over old root and the split sibling
		old := t.root
		t.root = &node{children: []*node{old, split}}
		t.root.recomputeRect()
	}
}

// insert descends to the best leaf; a non-nil return is a new sibling from
// a split that the caller must adopt.
func (t *RTree) insert(n *node, e Entry) *node {
	n.rect = n.rect.Union(e.Rect)
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.maxFill {
			return t.splitLeaf(n)
		}
		return nil
	}
	best := t.chooseChild(n, e.Rect)
	if split := t.insert(best, e); split != nil {
		n.children = append(n.children, split)
		if len(n.children) > t.maxFill {
			return t.splitInternal(n)
		}
	}
	return nil
}

// chooseChild picks the child needing least area enlargement (ties by area).
func (t *RTree) chooseChild(n *node, r geo.Rect) *node {
	var best *node
	bestGrow, bestArea := math.Inf(1), math.Inf(1)
	for _, c := range n.children {
		grow := c.rect.Enlargement(r)
		area := c.rect.Area()
		if grow < bestGrow || (grow == bestGrow && area < bestArea) {
			best, bestGrow, bestArea = c, grow, area
		}
	}
	return best
}

// splitLeaf splits an overflowing leaf with the quadratic heuristic and
// returns the new sibling.
func (t *RTree) splitLeaf(n *node) *node {
	rects := make([]geo.Rect, len(n.entries))
	for i, e := range n.entries {
		rects[i] = e.Rect
	}
	g1, g2 := quadraticSplit(rects, t.minFill)
	sib := &node{leaf: true}
	e1 := make([]Entry, 0, len(g1))
	for _, i := range g1 {
		e1 = append(e1, n.entries[i])
	}
	for _, i := range g2 {
		sib.entries = append(sib.entries, n.entries[i])
	}
	n.entries = e1
	n.recomputeRect()
	sib.recomputeRect()
	return sib
}

// splitInternal splits an overflowing internal node.
func (t *RTree) splitInternal(n *node) *node {
	rects := make([]geo.Rect, len(n.children))
	for i, c := range n.children {
		rects[i] = c.rect
	}
	g1, g2 := quadraticSplit(rects, t.minFill)
	sib := &node{}
	c1 := make([]*node, 0, len(g1))
	for _, i := range g1 {
		c1 = append(c1, n.children[i])
	}
	for _, i := range g2 {
		sib.children = append(sib.children, n.children[i])
	}
	n.children = c1
	n.recomputeRect()
	sib.recomputeRect()
	return sib
}

// quadraticSplit partitions rect indices into two groups per Guttman's
// quadratic heuristic: seed with the pair wasting the most area, then
// assign each remaining rect to the group whose MBR grows least, forcing
// assignment when a group must absorb the rest to reach minFill.
func quadraticSplit(rects []geo.Rect, minFill int) (g1, g2 []int) {
	n := len(rects)
	// pick seeds
	worst := -math.MaxFloat64
	s1, s2 := 0, 1
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			waste := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	g1 = append(g1, s1)
	g2 = append(g2, s2)
	r1, r2 := rects[s1], rects[s2]
	for i := 0; i < n; i++ {
		if i == s1 || i == s2 {
			continue
		}
		remaining := n - len(g1) - len(g2) - 1
		switch {
		case len(g1)+remaining+1 <= minFill:
			g1 = append(g1, i)
			r1 = r1.Union(rects[i])
			continue
		case len(g2)+remaining+1 <= minFill:
			g2 = append(g2, i)
			r2 = r2.Union(rects[i])
			continue
		}
		d1 := r1.Enlargement(rects[i])
		d2 := r2.Enlargement(rects[i])
		if d1 < d2 || (d1 == d2 && r1.Area() <= r2.Area()) {
			g1 = append(g1, i)
			r1 = r1.Union(rects[i])
		} else {
			g2 = append(g2, i)
			r2 = r2.Union(rects[i])
		}
	}
	return g1, g2
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
