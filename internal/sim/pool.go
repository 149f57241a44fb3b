package sim

import (
	"sync"

	"simsub/internal/geo"
)

// The scan hot path creates one incremental computer per (candidate
// trajectory, query) pair, and before this pool existed each computer
// allocated a fresh DP row. Over a thousand-trajectory store that is a
// thousand garbage rows per query per algorithm run. Rows now come from a
// shared sync.Pool and return to it through Release, so a steady-state scan
// performs no row allocations at all.
//
// Ownership rules (see DESIGN.md "Buffer pooling"):
//
//   - A computer takes its rows with getRow in NewIncremental, and they
//     belong to it alone until Release is called; Release must not be
//     called while the computer is still in use, and never twice.
//   - Pooled rows carry stale garbage. Every first Push after a Reset (or
//     Init) must fully overwrite (or explicitly zero) the cells it will
//     read.
//   - Releasing is optional: an unreleased row is ordinary garbage, so
//     forgetting Release degrades to the old allocation behavior instead of
//     corrupting anything.

// slicePool recycles slices of one element type: the DP rows of the
// incremental computers and the free-start pass (rowPool), and the reversed
// pair of the free-start pass's reverse gate (pointPool). It holds two
// sync.Pools, since storing slices in a pool directly would allocate a
// header per Put: slices holds boxes carrying a slice, boxes holds empty
// *[]T boxes. The two stay balanced — get moves a box from slices to boxes,
// put moves one back — so releasing several slices back-to-back never
// clobbers one with another.
type slicePool[T any] struct {
	slices, boxes sync.Pool
}

var (
	rowPool   slicePool[float64]
	pointPool slicePool[geo.Point]
)

// get returns a length-n slice with arbitrary contents.
func (p *slicePool[T]) get(n int) []T {
	var s []T
	if boxed, _ := p.slices.Get().(*[]T); boxed != nil {
		s, *boxed = *boxed, nil
		p.boxes.Put(boxed)
	}
	if cap(s) < n {
		s = make([]T, n)
	}
	return s[:n]
}

// put returns a slice obtained from get to the pool; a nil slice is a no-op.
func (p *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	boxed, _ := p.boxes.Get().(*[]T)
	if boxed == nil {
		boxed = new([]T)
	}
	*boxed = s[:0]
	p.slices.Put(boxed)
}

// getRow returns a length-n float64 slice with arbitrary contents.
func getRow(n int) []float64 { return rowPool.get(n) }

// putRow returns a row obtained from getRow to the pool.
func putRow(row []float64) { rowPool.put(row) }

// Releaser is implemented by incremental computers whose scratch buffers
// come from the package buffer pool. Release returns the buffers; the
// computer must not be used afterwards.
type Releaser interface {
	Release()
}

// Release returns inc's pooled buffers when it has any. Algorithms call it
// once they are done with a computer; it is safe on any Incremental.
func Release(inc Incremental) {
	if r, ok := inc.(Releaser); ok {
		r.Release()
	}
}
