package sim

import "sync"

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

// rowPool recycles float64 DP rows across incremental computers; boxPool
// recycles the *[]float64 boxes themselves (storing slices in a pool
// directly would allocate a header per Put). The two stay balanced: getRow
// moves a box from rowPool to boxPool, putRow moves one back — rowPool
// boxes always carry a row, boxPool boxes are always empty, so releasing
// several rows back-to-back never clobbers one with another.
var (
	rowPool = sync.Pool{New: func() any { return new([]float64) }}
	boxPool sync.Pool
)

// getRow returns a length-n float64 slice with arbitrary contents.
func getRow(n int) []float64 {
	boxed := rowPool.Get().(*[]float64)
	row := *boxed
	*boxed = nil
	boxPool.Put(boxed)
	if cap(row) < n {
		row = make([]float64, n)
	}
	return row[:n]
}

// putRow returns a row obtained from getRow to the pool.
func putRow(row []float64) {
	if cap(row) == 0 {
		return
	}
	boxed, _ := boxPool.Get().(*[]float64)
	if boxed == nil {
		boxed = new([]float64)
	}
	*boxed = row[:0]
	rowPool.Put(boxed)
}

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
