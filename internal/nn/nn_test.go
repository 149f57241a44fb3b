package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

func TestTensorMatVec(t *testing.T) {
	m := NewTensor(2, 3)
	copy(m.W, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	y := make([]float64, 2)
	m.MatVec(x, y)
	if y[0] != -2 || y[1] != -2 {
		t.Errorf("MatVec = %v, want [-2 -2]", y)
	}
	m.MatVecAdd(x, y)
	if y[0] != -4 || y[1] != -4 {
		t.Errorf("MatVecAdd = %v, want [-4 -4]", y)
	}
}

func TestTensorTransposedOps(t *testing.T) {
	m := NewTensor(2, 3)
	copy(m.W, []float64{1, 2, 3, 4, 5, 6})
	dy := []float64{1, -1}
	dx := make([]float64, 3)
	m.MatTVecAdd(dy, dx)
	// W^T dy = [1-4, 2-5, 3-6]
	want := []float64{-3, -3, -3}
	for i := range want {
		if dx[i] != want[i] {
			t.Errorf("MatTVecAdd[%d] = %v, want %v", i, dx[i], want[i])
		}
	}
	x := []float64{1, 2, 3}
	m.AccumOuter(dy, x)
	// G = dy x^T = [[1,2,3],[-1,-2,-3]]
	wantG := []float64{1, 2, 3, -1, -2, -3}
	for i := range wantG {
		if m.G[i] != wantG[i] {
			t.Errorf("AccumOuter G[%d] = %v, want %v", i, m.G[i], wantG[i])
		}
	}
}

func TestTensorShapePanics(t *testing.T) {
	m := NewTensor(2, 3)
	for name, fn := range map[string]func(){
		"MatVec":     func() { m.MatVec(make([]float64, 2), make([]float64, 2)) },
		"MatVecAdd":  func() { m.MatVecAdd(make([]float64, 3), make([]float64, 3)) },
		"AccumOuter": func() { m.AccumOuter(make([]float64, 3), make([]float64, 3)) },
		"MatTVecAdd": func() { m.MatTVecAdd(make([]float64, 3), make([]float64, 3)) },
		"CopyFrom":   func() { m.CopyFrom(NewTensor(3, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected shape panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestActivations(t *testing.T) {
	cases := []struct {
		act  Activation
		in   float64
		want float64
	}{
		{Linear, 3, 3},
		{ReLU, 3, 3},
		{ReLU, -3, 0},
		{Sigmoid, 0, 0.5},
		{Tanh, 0, 0},
	}
	for _, c := range cases {
		if got := c.act.apply(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v(%v) = %v, want %v", c.act, c.in, got, c.want)
		}
	}
	// derivative consistency by finite differences
	for _, act := range []Activation{Linear, Sigmoid, Tanh} {
		for _, v := range []float64{-1.3, -0.2, 0.4, 2.1} {
			const h = 1e-6
			num := (act.apply(v+h) - act.apply(v-h)) / (2 * h)
			ana := act.deriv(act.apply(v))
			if math.Abs(num-ana) > 1e-5 {
				t.Errorf("%v'(%v): numeric %v vs analytic %v", act, v, num, ana)
			}
		}
	}
}

// numGradMLP computes the numeric gradient of ½Σ(f(x)-target)² wrt every
// parameter with central differences.
func numGradMLP(m *MLP, x, target []float64, eps float64) [][]float64 {
	loss := func() float64 {
		out := m.Forward(x)
		l, _ := MSELoss(out, target)
		return l
	}
	var grads [][]float64
	for _, p := range m.Params() {
		g := make([]float64, p.Size())
		for i := range p.W {
			orig := p.W[i]
			p.W[i] = orig + eps
			lp := loss()
			p.W[i] = orig - eps
			lm := loss()
			p.W[i] = orig
			g[i] = (lp - lm) / (2 * eps)
		}
		grads = append(grads, g)
	}
	return grads
}

func TestMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, acts := range [][]Activation{
		{ReLU, Linear},
		{Tanh, Sigmoid},
		{Sigmoid, Linear},
	} {
		m := NewMLP([]int{3, 5, 2}, acts, rng)
		x := []float64{0.3, -0.7, 1.1}
		target := []float64{0.2, -0.4}
		out := m.Forward(x)
		_, dOut := MSELoss(out, target)
		m.Params().ZeroGrad()
		m.Forward(x)
		m.Backward(dOut)
		numeric := numGradMLP(m, x, target, 1e-6)
		for pi, p := range m.Params() {
			for i := range p.G {
				if math.Abs(p.G[i]-numeric[pi][i]) > 1e-4*(1+math.Abs(numeric[pi][i])) {
					t.Fatalf("acts %v: param %d[%d]: analytic %v vs numeric %v",
						acts, pi, i, p.G[i], numeric[pi][i])
				}
			}
		}
	}
}

func TestMLPInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := NewMLP([]int{3, 4, 2}, []Activation{Tanh, Linear}, rng)
	x := []float64{0.5, -0.2, 0.9}
	target := []float64{1, 0}
	m.Forward(x)
	out := m.Forward(x)
	_, dOut := MSELoss(out, target)
	dx := m.Backward(dOut)
	// numeric input gradient
	const eps = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		lp, _ := MSELoss(m.Forward(x), target)
		x[i] = orig - eps
		lm, _ := MSELoss(m.Forward(x), target)
		x[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(dx[i]-num) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("dx[%d] = %v, numeric %v", i, dx[i], num)
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := NewMLP([]int{2, 8, 1}, []Activation{Tanh, Sigmoid}, rng)
	opt := NewAdam(m.Params(), 0.05)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 800; epoch++ {
		for i, in := range inputs {
			out := m.Forward(in)
			_, grad := MSELoss(out, []float64{targets[i]})
			m.Backward(grad)
		}
		opt.Step()
	}
	for i, in := range inputs {
		out := m.Forward(in)[0]
		if math.Abs(out-targets[i]) > 0.2 {
			t.Errorf("XOR(%v) = %v, want %v", in, out, targets[i])
		}
	}
}

func TestMLPInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	m := NewMLP([]int{3, 5, 2}, []Activation{ReLU, Sigmoid}, rng)
	x := []float64{0.2, -0.7, 1.3}
	a := m.Forward(x)
	b := m.Infer(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Infer differs from Forward: %v vs %v", a, b)
		}
	}
}

func TestMLPInferConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	m := NewMLP([]int{2, 8, 3}, []Activation{Tanh, Linear}, rng)
	x := []float64{0.4, -0.1}
	want := m.Infer(x)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			ok := true
			for i := 0; i < 200; i++ {
				got := m.Infer(x)
				for j := range got {
					if got[j] != want[j] {
						ok = false
					}
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent Infer produced inconsistent outputs")
		}
	}
}

func TestMLPClone(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m := NewMLP([]int{2, 3, 2}, []Activation{ReLU, Linear}, rng)
	c := m.Clone()
	x := []float64{0.4, -0.9}
	a, b := m.Forward(x), c.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clone output differs: %v vs %v", a, b)
		}
	}
	// mutate original; clone must not change
	m.Layers[0].W.W[0] += 1
	b2 := c.Forward(x)
	for i := range b {
		if b[i] != b2[i] {
			t.Fatal("clone shares storage with original")
		}
	}
	// target-network style sync
	c.Params().CopyFrom(m.Params())
	a3, b3 := m.Forward(x), c.Forward(x)
	for i := range a3 {
		if a3[i] != b3[i] {
			t.Fatal("CopyFrom did not synchronize parameters")
		}
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m := NewMLP([]int{4, 8, 3}, []Activation{Tanh, Linear}, rng)
	opt := NewAdam(m.Params(), 0.01)
	x := []float64{0.1, 0.5, -0.3, 0.8}
	target := []float64{1, -1, 0.5}
	first, _ := MSELoss(m.Forward(x), target)
	for i := 0; i < 200; i++ {
		out := m.Forward(x)
		_, grad := MSELoss(out, target)
		m.Backward(grad)
		opt.Step()
	}
	last, _ := MSELoss(m.Forward(x), target)
	if last > first/100 {
		t.Errorf("Adam failed to fit: loss %v -> %v", first, last)
	}
}

func TestSGDReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := NewMLP([]int{2, 6, 1}, []Activation{Tanh, Linear}, rng)
	opt := NewSGD(m.Params(), 0.05)
	x := []float64{0.3, -0.6}
	target := []float64{0.7}
	first, _ := MSELoss(m.Forward(x), target)
	for i := 0; i < 300; i++ {
		out := m.Forward(x)
		_, grad := MSELoss(out, target)
		m.Backward(grad)
		opt.Step()
	}
	last, _ := MSELoss(m.Forward(x), target)
	if last > first/10 {
		t.Errorf("SGD failed to reduce loss: %v -> %v", first, last)
	}
}

func TestAdamGradientClip(t *testing.T) {
	p := NewTensor(1, 1)
	opt := NewAdam(Params{p}, 0.1)
	opt.Clip = 1
	p.G[0] = 1000
	opt.Step()
	// with clipping, the first Adam step is bounded by ~LR
	if math.Abs(p.W[0]) > 0.2 {
		t.Errorf("clipped Adam step moved parameter by %v", p.W[0])
	}
	if p.G[0] != 0 {
		t.Error("Step should clear gradients")
	}
}

func TestGRUStepMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	g := NewGRU(3, 5, rng)
	run := g.NewRun(nil)
	h := make([]float64, 5)
	s := make([]float64, g.ScratchLen())
	xs := [][]float64{{1, 0, -1}, {0.5, 0.5, 0.5}, {-0.2, 0.8, 0.1}}
	for _, x := range xs {
		run.Step(x)
		g.Step(h, x, h, s)
	}
	for i := range h {
		if h[i] != run.H()[i] {
			t.Fatalf("Step diverges from recorded run at %d: %v vs %v", i, h[i], run.H()[i])
		}
	}
	if run.Steps() != 3 {
		t.Errorf("Steps = %d, want 3", run.Steps())
	}
}

func TestGRUGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	g := NewGRU(2, 4, rng)
	xs := [][]float64{{0.5, -0.3}, {0.1, 0.9}, {-0.7, 0.2}}
	target := []float64{0.3, -0.1, 0.5, 0.2}

	loss := func() float64 {
		run := g.NewRun(nil)
		for _, x := range xs {
			run.Step(x)
		}
		l, _ := MSELoss(run.H(), target)
		return l
	}

	// analytic gradients: backprop only through the final hidden state
	g.Params().ZeroGrad()
	run := g.NewRun(nil)
	for _, x := range xs {
		run.Step(x)
	}
	_, dLast := MSELoss(run.H(), target)
	dH := make([][]float64, len(xs))
	dH[len(xs)-1] = dLast
	dX := make([][]float64, len(xs))
	run.Backward(dH, dX)

	const eps = 1e-6
	for pi, p := range g.Params() {
		for i := range p.W {
			orig := p.W[i]
			p.W[i] = orig + eps
			lp := loss()
			p.W[i] = orig - eps
			lm := loss()
			p.W[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(p.G[i]-num) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("param %d[%d]: analytic %v vs numeric %v", pi, i, p.G[i], num)
			}
		}
	}

	// input gradient check
	for ti, x := range xs {
		for i := range x {
			orig := x[i]
			x[i] = orig + eps
			lp := loss()
			x[i] = orig - eps
			lm := loss()
			x[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(dX[ti][i]-num) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("input %d[%d]: analytic %v vs numeric %v", ti, i, dX[ti][i], num)
			}
		}
	}
}

func TestGRUGradientCheckMultiStepLoss(t *testing.T) {
	// gradients with a loss attached to every step's hidden state
	rng := rand.New(rand.NewSource(50))
	g := NewGRU(2, 3, rng)
	xs := [][]float64{{0.4, 0.1}, {-0.5, 0.3}}
	targets := [][]float64{{0.1, 0.2, -0.1}, {-0.3, 0.4, 0.2}}

	loss := func() float64 {
		run := g.NewRun(nil)
		total := 0.0
		for t2, x := range xs {
			h := run.Step(x)
			l, _ := MSELoss(h, targets[t2])
			total += l
		}
		return total
	}

	g.Params().ZeroGrad()
	run := g.NewRun(nil)
	dH := make([][]float64, len(xs))
	for t2, x := range xs {
		h := run.Step(x)
		_, dH[t2] = MSELoss(h, targets[t2])
	}
	run.Backward(dH, nil)

	const eps = 1e-6
	for pi, p := range g.Params() {
		for i := range p.W {
			orig := p.W[i]
			p.W[i] = orig + eps
			lp := loss()
			p.W[i] = orig - eps
			lm := loss()
			p.W[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(p.G[i]-num) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("param %d[%d]: analytic %v vs numeric %v", pi, i, p.G[i], num)
			}
		}
	}
}

func TestGRUInitialHiddenGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := NewGRU(2, 3, rng)
	h0 := []float64{0.2, -0.4, 0.6}
	x := []float64{0.3, 0.7}
	target := []float64{0, 0, 0}

	loss := func() float64 {
		run := g.NewRun(h0)
		run.Step(x)
		l, _ := MSELoss(run.H(), target)
		return l
	}

	g.Params().ZeroGrad()
	run := g.NewRun(h0)
	run.Step(x)
	_, dLast := MSELoss(run.H(), target)
	dh0 := run.Backward([][]float64{dLast}, nil)

	const eps = 1e-6
	for i := range h0 {
		orig := h0[i]
		h0[i] = orig + eps
		lp := loss()
		h0[i] = orig - eps
		lm := loss()
		h0[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(dh0[i]-num) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("dh0[%d]: analytic %v vs numeric %v", i, dh0[i], num)
		}
	}
}

func TestMLPSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	m := NewMLP([]int{3, 20, 5}, []Activation{ReLU, Sigmoid}, rng)
	var buf bytes.Buffer
	if err := SaveMLP(&buf, m); err != nil {
		t.Fatalf("SaveMLP: %v", err)
	}
	got, err := LoadMLP(&buf)
	if err != nil {
		t.Fatalf("LoadMLP: %v", err)
	}
	x := []float64{0.1, -0.5, 0.8}
	a, b := m.Forward(x), got.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round-tripped MLP output differs: %v vs %v", a, b)
		}
	}
}

func TestGRUSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := NewGRU(4, 6, rng)
	var buf bytes.Buffer
	if err := SaveGRU(&buf, g); err != nil {
		t.Fatalf("SaveGRU: %v", err)
	}
	got, err := LoadGRU(&buf)
	if err != nil {
		t.Fatalf("LoadGRU: %v", err)
	}
	h1 := make([]float64, 6)
	h2 := make([]float64, 6)
	s := make([]float64, g.ScratchLen())
	x := []float64{1, -1, 0.5, 0.2}
	g.Step(h1, x, h1, s)
	got.Step(h2, x, h2, s)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("round-tripped GRU hidden differs: %v vs %v", h1, h2)
		}
	}
}

func TestLoadMLPCorrupt(t *testing.T) {
	if _, err := LoadMLP(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("expected error decoding garbage")
	}
}

// TestLoadMLPRejectsHostileShapes: a gob MLP whose dimensions disagree
// with its tensors — or with each other — is an error, never a panic or an
// allocation sized by the header alone.
func TestLoadMLPRejectsHostileShapes(t *testing.T) {
	layer := func(in, out, act int) mlpWire {
		return mlpWire{Ins: []int{in}, Outs: []int{out}, Acts: []int{act},
			Weights: [][]float64{make([]float64, max(in*out, 0))}, Biases: [][]float64{make([]float64, max(out, 0))}}
	}
	unchained := layer(2, 3, 1)
	unchained.Ins, unchained.Outs, unchained.Acts = append(unchained.Ins, 4), append(unchained.Outs, 1), append(unchained.Acts, 0)
	unchained.Weights, unchained.Biases = append(unchained.Weights, make([]float64, 4)), append(unchained.Biases, make([]float64, 1))
	huge := layer(1, 1, 0)
	huge.Ins, huge.Outs = []int{1 << 31}, []int{1 << 31}
	cases := map[string]mlpWire{
		"inputs only":        {Ins: []int{3}},
		"negative widths":    layer(-2, -3, 0),
		"zero width":         layer(0, 3, 0),
		"header-sized":       huge,
		"unchained layers":   unchained,
		"unknown activation": layer(2, 1, 9),
		"short bias":         {Ins: []int{2}, Outs: []int{1}, Acts: []int{0}, Weights: [][]float64{{1, 2}}, Biases: [][]float64{{}}},
	}
	for name, wire := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
			t.Fatal(err)
		}
		if m, err := LoadMLP(&buf); err == nil {
			t.Errorf("%s: decoded %d layers, want an error", name, len(m.Layers))
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(layer(2, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMLP(&buf); err != nil {
		t.Fatalf("a well-formed layer: %v", err)
	}
}

// TestLoadGRURejectsHostileShapes is the GRU's counterpart.
func TestLoadGRURejectsHostileShapes(t *testing.T) {
	tensors := func(in, hidden int) [][]float64 {
		var ts [][]float64
		for range 3 {
			ts = append(ts, make([]float64, max(hidden*in, 0)), make([]float64, max(hidden*hidden, 0)), make([]float64, max(hidden, 0)))
		}
		return ts
	}
	cases := map[string]gruWire{
		"negative input":      {In: -1, Hidden: 2, Tensors: tensors(-1, 2)},
		"zero hidden":         {In: 2, Hidden: 0, Tensors: tensors(2, 0)},
		"header-sized":        {In: 1 << 31, Hidden: 1 << 31, Tensors: tensors(1, 1)},
		"dimensions disagree": {In: 3, Hidden: 2, Tensors: tensors(2, 2)},
		"missing tensors":     {In: 2, Hidden: 2, Tensors: tensors(2, 2)[:8]},
	}
	for name, wire := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
			t.Fatal(err)
		}
		if g, err := LoadGRU(&buf); err == nil {
			t.Errorf("%s: decoded a %d→%d cell, want an error", name, g.InDim, g.HiddenDim)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gruWire{In: 2, Hidden: 3, Tensors: tensors(2, 3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGRU(&buf); err != nil {
		t.Fatalf("a well-formed cell: %v", err)
	}
}

func TestSaveLoadMLPFile(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	m := NewMLP([]int{2, 3, 1}, []Activation{ReLU, Linear}, rng)
	path := t.TempDir() + "/model.gob"
	if err := SaveMLPFile(path, m); err != nil {
		t.Fatalf("SaveMLPFile: %v", err)
	}
	got, err := LoadMLPFile(path)
	if err != nil {
		t.Fatalf("LoadMLPFile: %v", err)
	}
	x := []float64{0.5, 0.5}
	if m.Forward(x)[0] != got.Forward(x)[0] {
		t.Error("file round trip changed outputs")
	}
}

func TestMSELoss(t *testing.T) {
	loss, grad := MSELoss([]float64{1, 2}, []float64{0, 4})
	if math.Abs(loss-2.5) > 1e-12 { // 0.5*(1+4)
		t.Errorf("loss = %v, want 2.5", loss)
	}
	if grad[0] != 1 || grad[1] != -2 {
		t.Errorf("grad = %v, want [1 -2]", grad)
	}
}

func TestParamsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	m := NewMLP([]int{3, 20, 5}, []Activation{ReLU, Sigmoid}, rng)
	want := 3*20 + 20 + 20*5 + 5
	if got := m.Params().Count(); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
}
