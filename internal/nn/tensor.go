// Package nn is a small, dependency-free neural-network substrate: dense
// layers, multi-layer perceptrons, a GRU cell with backpropagation through
// time, mean-squared-error loss and the Adam optimizer.
//
// It exists because the paper's learned components — the DQN policy network
// (§5.2) and the t2vec trajectory encoder (§3.2) — need a deep-learning
// stack, and this reproduction is stdlib-only. The networks involved are
// tiny (two dense layers for DQN, one GRU layer for t2vec), so a clear
// float64 CPU implementation is both faithful and fast enough.
//
// All randomness flows through explicitly seeded *rand.Rand values, making
// training runs reproducible.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major matrix of parameters together with its
// gradient accumulator. A vector is a 1×n or n×1 tensor.
type Tensor struct {
	Rows, Cols int
	// W holds the parameter values, len Rows*Cols.
	W []float64
	// G accumulates gradients of the loss with respect to W.
	G []float64
}

// NewTensor allocates a zero tensor of the given shape.
func NewTensor(rows, cols int) *Tensor {
	return &Tensor{
		Rows: rows, Cols: cols,
		W: make([]float64, rows*cols),
		G: make([]float64, rows*cols),
	}
}

// At returns the element at (r, c).
func (t *Tensor) At(r, c int) float64 { return t.W[r*t.Cols+c] }

// Set assigns the element at (r, c).
func (t *Tensor) Set(r, c int, v float64) { t.W[r*t.Cols+c] = v }

// ZeroGrad clears the gradient accumulator.
func (t *Tensor) ZeroGrad() {
	for i := range t.G {
		t.G[i] = 0
	}
}

// Size returns the number of parameters.
func (t *Tensor) Size() int { return len(t.W) }

// InitXavier fills the tensor with Glorot-uniform values scaled by the
// tensor fan-in and fan-out, using the provided source of randomness.
func (t *Tensor) InitXavier(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(t.Rows+t.Cols))
	for i := range t.W {
		t.W[i] = (rng.Float64()*2 - 1) * limit
	}
}

// CopyFrom copies parameter values (not gradients) from src. Shapes must
// match.
func (t *Tensor) CopyFrom(src *Tensor) {
	if t.Rows != src.Rows || t.Cols != src.Cols {
		panic(fmt.Sprintf("nn: CopyFrom shape mismatch %dx%d vs %dx%d", t.Rows, t.Cols, src.Rows, src.Cols))
	}
	copy(t.W, src.W)
}

// MatVec computes y = W·x where x has length Cols and y length Rows.
// y must not alias x.
func (t *Tensor) MatVec(x, y []float64) {
	if len(x) != t.Cols || len(y) != t.Rows {
		panic(fmt.Sprintf("nn: MatVec shape mismatch: %dx%d with x[%d] y[%d]", t.Rows, t.Cols, len(x), len(y)))
	}
	matVec(t.W, x, y, false)
}

// MatVecAdd computes y += W·x.
func (t *Tensor) MatVecAdd(x, y []float64) {
	if len(x) != t.Cols || len(y) != t.Rows {
		panic(fmt.Sprintf("nn: MatVecAdd shape mismatch: %dx%d with x[%d] y[%d]", t.Rows, t.Cols, len(x), len(y)))
	}
	matVec(t.W, x, y, true)
}

// matVec is the package's one mat-vec row loop. w holds a row-major
// len(y)×len(x) matrix; row r dotted with x is stored into y[r], or added
// to it when add is set. Each dot product is a fresh sum taken in column
// order, so y is bit-identical to the textbook one-row-at-a-time loop.
// Four rows run interleaved with independent accumulators, and every
// operand is resliced to the length of x so the inner loop carries no
// bounds checks. y must not alias x or w.
func matVec(w, x, y []float64, add bool) {
	n := len(x)
	w = w[:len(y)*n]
	r := 0
	for ; r+4 <= len(y); r += 4 {
		blk := w[r*n : (r+4)*n]
		w0, w1, w2, w3 := blk[:n], blk[n:2*n], blk[2*n:3*n], blk[3*n:4*n]
		w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
		var s0, s1, s2, s3 float64
		for c, xc := range x {
			s0 += w0[c] * xc
			s1 += w1[c] * xc
			s2 += w2[c] * xc
			s3 += w3[c] * xc
		}
		out := y[r : r+4 : r+4]
		if add {
			out[0] += s0
			out[1] += s1
			out[2] += s2
			out[3] += s3
		} else {
			out[0], out[1], out[2], out[3] = s0, s1, s2, s3
		}
	}
	for ; r < len(y); r++ {
		row := w[r*n : (r+1)*n]
		row = row[:len(x)]
		var s float64
		for c, xc := range x {
			s += row[c] * xc
		}
		if add {
			y[r] += s
		} else {
			y[r] = s
		}
	}
}

// AccumOuter accumulates the outer product dy·xᵀ into the gradient: used for
// dL/dW when y = W·x and dy = dL/dy.
func (t *Tensor) AccumOuter(dy, x []float64) {
	if len(dy) != t.Rows || len(x) != t.Cols {
		panic("nn: AccumOuter shape mismatch")
	}
	for r, dyr := range dy {
		if dyr == 0 {
			continue
		}
		g := t.G[r*t.Cols : (r+1)*t.Cols]
		for c, xc := range x {
			g[c] += dyr * xc
		}
	}
}

// MatTVecAdd computes dx += Wᵀ·dy: the input gradient when y = W·x.
func (t *Tensor) MatTVecAdd(dy, dx []float64) {
	if len(dy) != t.Rows || len(dx) != t.Cols {
		panic("nn: MatTVecAdd shape mismatch")
	}
	for r, dyr := range dy {
		if dyr == 0 {
			continue
		}
		row := t.W[r*t.Cols : (r+1)*t.Cols]
		for c, v := range row {
			dx[c] += dyr * v
		}
	}
}

// Params is a collection of parameter tensors that an optimizer updates as a
// unit.
type Params []*Tensor

// ZeroGrad clears every tensor's gradient.
func (p Params) ZeroGrad() {
	for _, t := range p {
		t.ZeroGrad()
	}
}

// Count returns the total number of scalar parameters.
func (p Params) Count() int {
	n := 0
	for _, t := range p {
		n += t.Size()
	}
	return n
}

// CopyFrom copies parameter values tensor-by-tensor (used for DQN target
// network synchronization). Lengths and shapes must match.
func (p Params) CopyFrom(src Params) {
	if len(p) != len(src) {
		panic("nn: Params.CopyFrom length mismatch")
	}
	for i := range p {
		p[i].CopyFrom(src[i])
	}
}
