package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// GRU is a gated recurrent unit cell (Cho et al. 2014), the recurrent
// building block of the t2vec encoder/decoder (§3.2 of the paper cites the
// RNN encoder-decoder framework):
//
//	z = σ(Wz·x + Uz·h + bz)          update gate
//	r = σ(Wr·x + Ur·h + br)          reset gate
//	ĥ = tanh(Wh·x + Uh·(r⊙h) + bh)   candidate state
//	h' = (1-z)⊙h + z⊙ĥ
//
// The gate weights are stored stacked: [Wz;Wr;Wh] is one 3H×In array and
// [Uz;Ur] one 2H×H array (H = HiddenDim, In = InDim), values and gradients
// alike. The nine tensors Params returns are row-block views into that
// storage, so the optimizer, serialization and validation see the nine
// gate tensors while Step runs one mat-vec over x and one over h. Writing
// through a view's W or G is visible to Step; replacing a tensor field is
// not, so build cells with NewGRU or LoadGRU and never assign the fields.
//
// Step is the one forward. It writes into scratch the caller owns
// (ScratchLen values) and allocates nothing, so a caller that steps many
// times (t2vec's incremental computer, Embed) holds one scratch; hOut may
// alias h, nothing else may alias. A recorded GRURun steps through it
// with each step's cache as the scratch.
type GRU struct {
	InDim, HiddenDim int
	Wz, Uz, Bz       *Tensor
	Wr, Ur, Br       *Tensor
	Wh, Uh, Bh       *Tensor
	// wx is [Wz;Wr;Wh] and uzr is [Uz;Ur]: the values the views share.
	wx, uzr []float64
}

// newGRU builds a zero cell: the one constructor behind NewGRU and LoadGRU.
func newGRU(in, hidden int) *GRU {
	wx := NewTensor(3*hidden, in)
	uzr := NewTensor(2*hidden, hidden)
	return &GRU{
		InDim: in, HiddenDim: hidden,
		Wz: wx.rowBlock(0, hidden), Uz: uzr.rowBlock(0, hidden), Bz: NewTensor(1, hidden),
		Wr: wx.rowBlock(hidden, hidden), Ur: uzr.rowBlock(hidden, hidden), Br: NewTensor(1, hidden),
		Wh: wx.rowBlock(2*hidden, hidden), Uh: NewTensor(hidden, hidden), Bh: NewTensor(1, hidden),
		wx: wx.W, uzr: uzr.W,
	}
}

// rowBlock returns the n-row block of t starting at row i, sharing t's values
// and gradients.
func (t *Tensor) rowBlock(i, n int) *Tensor {
	lo, hi := i*t.Cols, (i+n)*t.Cols
	return &Tensor{Rows: n, Cols: t.Cols, W: t.W[lo:hi:hi], G: t.G[lo:hi:hi]}
}

// NewGRU builds a GRU cell with Xavier-initialized weights.
func NewGRU(in, hidden int, rng *rand.Rand) *GRU {
	g := newGRU(in, hidden)
	for _, t := range []*Tensor{g.Wz, g.Uz, g.Wr, g.Ur, g.Wh, g.Uh} {
		t.InitXavier(rng)
	}
	return g
}

// Params returns all parameter tensors in a stable order.
func (g *GRU) Params() Params {
	return Params{g.Wz, g.Uz, g.Bz, g.Wr, g.Ur, g.Br, g.Wh, g.Uh, g.Bh}
}

// ScratchLen is the length of the scratch slice Step needs: 4·HiddenDim.
func (g *GRU) ScratchLen() int { return 4 * g.HiddenDim }

// Step advances the hidden state by one input, hOut = GRU(h, x), and
// allocates nothing: this is the O(1)-per-point primitive behind t2vec's
// incremental subtrajectory extension (Φinc = O(1) in Table 1). h and hOut
// have length HiddenDim, x length InDim, and scratch at least ScratchLen
// values owned by the caller. hOut may alias h; nothing else may alias.
//
// On return scratch holds the step's activations, which a recorded run
// keeps for backpropagation: z in [0,H), r in [H,2H), ĥ in [2H,3H) and
// r⊙h in [3H,4H). Every pre-activation is summed as Σ W·x, then += Σ U·h,
// then + b, row by row in column order, so the result does not depend on
// how the mat-vec interleaves rows.
func (g *GRU) Step(h, x, hOut, scratch []float64) {
	hd := g.HiddenDim
	if len(h) != hd || len(x) != g.InDim || len(hOut) != hd || len(scratch) < 4*hd {
		panic(fmt.Sprintf("nn: GRU.Step shape mismatch: in %d hidden %d with h[%d] x[%d] hOut[%d] scratch[%d]",
			g.InDim, hd, len(h), len(x), len(hOut), len(scratch)))
	}
	pre, rh := scratch[:3*hd], scratch[3*hd:4*hd]
	matVec(g.wx, x, pre, false)        // Wz·x, Wr·x, Wh·x
	matVec(g.uzr, h, pre[:2*hd], true) // += Uz·h, Ur·h
	z, r, c := pre[:hd], pre[hd:2*hd], pre[2*hd:]
	bz, br, bh := g.Bz.W[:hd], g.Br.W[:hd], g.Bh.W[:hd]
	for i := range z {
		z[i] = sigmoid(z[i] + bz[i])
		r[i] = sigmoid(r[i] + br[i])
		rh[i] = r[i] * h[i]
	}
	matVec(g.Uh.W, rh, c, true) // += Uh·(r⊙h)
	for i := range c {
		c[i] = math.Tanh(c[i] + bh[i])
		hOut[i] = (1-z[i])*h[i] + z[i]*c[i]
	}
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// gruCache records one forward step for BPTT.
type gruCache struct {
	x, hPrev, z, r, rh, cand, h []float64
}

// GRURun is a recorded forward pass over a sequence, supporting
// backpropagation through time.
type GRURun struct {
	g      *GRU
	h0     []float64
	caches []gruCache
}

// NewRun begins a recorded sequence from initial hidden state h0 (copied).
// Pass nil for a zero initial state.
func (g *GRU) NewRun(h0 []float64) *GRURun {
	h := make([]float64, g.HiddenDim)
	copy(h, h0)
	return &GRURun{g: g, h0: h}
}

// H returns the current hidden state (the last step's output, or h0).
func (r *GRURun) H() []float64 {
	if len(r.caches) == 0 {
		return r.h0
	}
	return r.caches[len(r.caches)-1].h
}

// Steps returns the number of recorded steps.
func (r *GRURun) Steps() int { return len(r.caches) }

// HiddenAt returns the hidden state after step t (0-based).
func (r *GRURun) HiddenAt(t int) []float64 { return r.caches[t].h }

// Step consumes one input and returns the new hidden state. x is copied.
// It runs GRU.Step with the step's cache as the scratch.
func (r *GRURun) Step(x []float64) []float64 {
	g := r.g
	in, hd := g.InDim, g.HiddenDim
	buf := make([]float64, in+6*hd)
	c := gruCache{
		x:     buf[:in],
		hPrev: buf[in : in+hd],
		h:     buf[in+hd : in+2*hd],
	}
	s := buf[in+2*hd:]
	c.z, c.r, c.cand, c.rh = s[:hd], s[hd:2*hd], s[2*hd:3*hd], s[3*hd:]
	copy(c.x, x)
	copy(c.hPrev, r.H())
	g.Step(c.hPrev, c.x, c.h, s)
	r.caches = append(r.caches, c)
	return c.h
}

// Backward runs BPTT over the recorded steps. dH[t] is dL/dh_t for each
// recorded step (entries may be nil when a step's hidden state does not
// receive a direct gradient); gradients are accumulated into the GRU
// parameter tensors. It returns dL/dh0 and, when dX is non-nil, fills
// dX[t] (length InDim each) with input gradients.
func (r *GRURun) Backward(dH [][]float64, dX [][]float64) []float64 {
	g := r.g
	hd := g.HiddenDim
	dh := make([]float64, hd) // gradient flowing into h_t from the future
	dhPrev := make([]float64, hd)
	daz := make([]float64, hd)
	dar := make([]float64, hd)
	dah := make([]float64, hd)
	drh := make([]float64, hd)
	for t := len(r.caches) - 1; t >= 0; t-- {
		c := r.caches[t]
		if dH != nil && dH[t] != nil {
			for i := range dh {
				dh[i] += dH[t][i]
			}
		}
		for i := range dhPrev {
			dhPrev[i] = 0
			drh[i] = 0
		}
		for i := 0; i < hd; i++ {
			// h = (1-z)·hPrev + z·cand
			dcand := dh[i] * c.z[i]
			dz := dh[i] * (c.cand[i] - c.hPrev[i])
			dhPrev[i] += dh[i] * (1 - c.z[i])
			dah[i] = dcand * (1 - c.cand[i]*c.cand[i])
			daz[i] = dz * c.z[i] * (1 - c.z[i])
		}
		// candidate path: ah = Wh·x + Uh·rh + bh
		g.Wh.AccumOuter(dah, c.x)
		g.Uh.AccumOuter(dah, c.rh)
		for i := 0; i < hd; i++ {
			g.Bh.G[i] += dah[i]
		}
		g.Uh.MatTVecAdd(dah, drh)
		for i := 0; i < hd; i++ {
			dr := drh[i] * c.hPrev[i]
			dhPrev[i] += drh[i] * c.r[i]
			dar[i] = dr * c.r[i] * (1 - c.r[i])
		}
		// reset gate path: ar = Wr·x + Ur·hPrev + br
		g.Wr.AccumOuter(dar, c.x)
		g.Ur.AccumOuter(dar, c.hPrev)
		for i := 0; i < hd; i++ {
			g.Br.G[i] += dar[i]
		}
		g.Ur.MatTVecAdd(dar, dhPrev)
		// update gate path: az = Wz·x + Uz·hPrev + bz
		g.Wz.AccumOuter(daz, c.x)
		g.Uz.AccumOuter(daz, c.hPrev)
		for i := 0; i < hd; i++ {
			g.Bz.G[i] += daz[i]
		}
		g.Uz.MatTVecAdd(daz, dhPrev)
		if dX != nil {
			dx := make([]float64, g.InDim)
			g.Wh.MatTVecAdd(dah, dx)
			g.Wr.MatTVecAdd(dar, dx)
			g.Wz.MatTVecAdd(daz, dx)
			dX[t] = dx
		}
		dh, dhPrev = dhPrev, dh
	}
	out := make([]float64, hd)
	copy(out, dh)
	return out
}
