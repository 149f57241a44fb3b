package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceStep is the GRU step as it was computed before the gate weights
// were stacked: six separate one-row-at-a-time mat-vecs over the nine
// tensors, each dot product a single accumulator in column order. Step
// must match it bit for bit.
func referenceStep(g *GRU, h, x, hOut []float64) {
	hd := g.HiddenDim
	mv := func(t *Tensor, x, y []float64, add bool) {
		for r := 0; r < t.Rows; r++ {
			row := t.W[r*t.Cols : (r+1)*t.Cols]
			var s float64
			for c, v := range row {
				s += v * x[c]
			}
			if add {
				y[r] += s
			} else {
				y[r] = s
			}
		}
	}
	z := make([]float64, hd)
	r := make([]float64, hd)
	rh := make([]float64, hd)
	cand := make([]float64, hd)
	mv(g.Wz, x, z, false)
	mv(g.Uz, h, z, true)
	mv(g.Wr, x, r, false)
	mv(g.Ur, h, r, true)
	for i := 0; i < hd; i++ {
		z[i] = sigmoid(z[i] + g.Bz.W[i])
		r[i] = sigmoid(r[i] + g.Br.W[i])
		rh[i] = r[i] * h[i]
	}
	mv(g.Wh, x, cand, false)
	mv(g.Uh, rh, cand, true)
	for i := 0; i < hd; i++ {
		c := math.Tanh(cand[i] + g.Bh.W[i])
		hOut[i] = (1-z[i])*h[i] + z[i]*c
	}
}

// FuzzGRUStep is the differential fuzzer of the GRU kernel against
// referenceStep: fuzzed shapes (in 1–8, hidden 1–33, so row counts that are
// not multiples of the four-row interleave), weights, biases, hidden state
// and input, several steps in a row, with hOut aliasing h or not. Values
// come from the fuzzer's bytes where it supplies them (any bit pattern,
// NaN and ±Inf included) and from a seeded source after that. Every value
// must carry the reference's bits; a NaN only needs to be a NaN.
func FuzzGRUStep(f *testing.F) {
	f.Add(uint8(2), uint8(16), int64(1), 1.0, true, []byte{})
	f.Add(uint8(1), uint8(1), int64(2), 0.5, false, []byte{})
	f.Add(uint8(8), uint8(33), int64(3), 4.0, true, []byte{})
	f.Add(uint8(3), uint8(7), int64(4), 1e3, false, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(5), uint8(6), int64(5), 1e-300, true, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, in, hidden uint8, seed int64, scale float64, alias bool, raw []byte) {
		inDim, hd := 1+int(in)%8, 1+int(hidden)%33
		rng := rand.New(rand.NewSource(seed))
		next := func() float64 {
			if len(raw) >= 8 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
				raw = raw[8:]
				return v
			}
			return rng.NormFloat64() * scale
		}
		g := NewGRU(inDim, hd, rng)
		for _, p := range g.Params() {
			for i := range p.W {
				p.W[i] = next()
			}
		}
		h := make([]float64, hd)
		for i := range h {
			h[i] = next()
		}
		want := append([]float64(nil), h...)
		s := make([]float64, g.ScratchLen())
		x := make([]float64, inDim)
		for step := 0; step < 3; step++ {
			for i := range x {
				x[i] = next()
			}
			referenceStep(g, want, x, want)
			hOut := h
			if !alias {
				hOut = make([]float64, hd)
			}
			g.Step(h, x, hOut, s)
			h = hOut
			for i := range want {
				if !sameBits(h[i], want[i]) {
					t.Fatalf("in %d hidden %d step %d: h[%d] = %v (%#016x), reference %v (%#016x)",
						inDim, hd, step, i, h[i], math.Float64bits(h[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	})
}

// sameBits is bit equality, except that any two NaNs match: which operand's
// payload and sign a NaN result carries depends on the operand order the
// compiler picks for a commutative instruction, which neither IEEE 754 nor
// Go specifies.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func TestGRUStepZeroAlloc(t *testing.T) {
	g := NewGRU(2, 16, rand.New(rand.NewSource(61)))
	h := make([]float64, g.HiddenDim)
	s := make([]float64, g.ScratchLen())
	x := []float64{0.3, 0.7}
	if allocs := testing.AllocsPerRun(100, func() { g.Step(h, x, h, s) }); allocs != 0 {
		t.Fatalf("GRU.Step allocates %v times per call, want 0", allocs)
	}
}

func TestGRUStepShapePanics(t *testing.T) {
	g := NewGRU(2, 4, rand.New(rand.NewSource(62)))
	h := make([]float64, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Step with a short scratch did not panic")
		}
	}()
	g.Step(h, []float64{0, 1}, h, make([]float64, g.ScratchLen()-1))
}

func BenchmarkGRUStep(b *testing.B) {
	for _, sh := range []struct{ in, hidden int }{{2, 16}, {8, 64}} {
		g := NewGRU(sh.in, sh.hidden, rand.New(rand.NewSource(1)))
		h := make([]float64, sh.hidden)
		x := make([]float64, sh.in)
		for i := range x {
			x[i] = 0.1 * float64(i+1)
		}
		s := make([]float64, g.ScratchLen())
		b.Run(fmt.Sprintf("in=%d/hidden=%d", sh.in, sh.hidden), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				g.Step(h, x, h, s)
			}
		})
	}
}
