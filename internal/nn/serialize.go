package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// mlpWire is the gob wire form of an MLP.
type mlpWire struct {
	Ins, Outs []int
	Acts      []int
	Weights   [][]float64
	Biases    [][]float64
}

// SaveMLP serializes an MLP (architecture and parameters) with encoding/gob.
func SaveMLP(w io.Writer, m *MLP) error {
	var wire mlpWire
	for _, l := range m.Layers {
		wire.Ins = append(wire.Ins, l.In())
		wire.Outs = append(wire.Outs, l.Out())
		wire.Acts = append(wire.Acts, int(l.Act))
		wire.Weights = append(wire.Weights, append([]float64(nil), l.W.W...))
		wire.Biases = append(wire.Biases, append([]float64(nil), l.B.W...))
	}
	return gob.NewEncoder(w).Encode(wire)
}

// holds reports whether vals is exactly a rows×cols tensor with positive
// dimensions, without forming a product that could overflow.
func holds(vals []float64, rows, cols int) bool {
	return rows > 0 && cols > 0 && rows <= len(vals) && len(vals)%rows == 0 && len(vals)/rows == cols
}

// LoadMLP reads an MLP previously written by SaveMLP. The input is
// untrusted: every layer's dimensions, parameter counts and activation, and
// the chaining of each layer's input to the previous layer's output, are
// checked against the decoded values before anything is allocated, so a
// hostile file is an error here rather than a panic at inference time.
func LoadMLP(r io.Reader) (*MLP, error) {
	var wire mlpWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("nn: decoding MLP: %w", err)
	}
	n := len(wire.Ins)
	if n == 0 {
		return nil, fmt.Errorf("nn: decoded MLP has no layers")
	}
	if len(wire.Outs) != n || len(wire.Acts) != n || len(wire.Weights) != n || len(wire.Biases) != n {
		return nil, fmt.Errorf("nn: MLP wire lists %d inputs, %d outputs, %d activations, %d weight and %d bias tensors",
			n, len(wire.Outs), len(wire.Acts), len(wire.Weights), len(wire.Biases))
	}
	for i := range n {
		switch in, out := wire.Ins[i], wire.Outs[i]; {
		case !holds(wire.Weights[i], out, in) || !holds(wire.Biases[i], 1, out):
			return nil, fmt.Errorf("nn: MLP layer %d has inconsistent sizes", i)
		case i > 0 && in != wire.Outs[i-1]:
			return nil, fmt.Errorf("nn: MLP layer %d takes %d inputs, layer %d gives %d", i, in, i-1, wire.Outs[i-1])
		case wire.Acts[i] < int(Linear) || wire.Acts[i] > int(Tanh):
			return nil, fmt.Errorf("nn: MLP layer %d has unknown activation %d", i, wire.Acts[i])
		}
	}
	m := &MLP{}
	for i := range n {
		l := &Dense{W: NewTensor(wire.Outs[i], wire.Ins[i]), B: NewTensor(1, wire.Outs[i]), Act: Activation(wire.Acts[i])}
		copy(l.W.W, wire.Weights[i])
		copy(l.B.W, wire.Biases[i])
		m.Layers = append(m.Layers, l)
	}
	return m, nil
}

// SaveMLPFile writes the MLP to the named file.
func SaveMLPFile(path string, m *MLP) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return SaveMLP(f, m)
}

// LoadMLPFile reads an MLP from the named file.
func LoadMLPFile(path string) (*MLP, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadMLP(f)
}

// gruWire is the gob wire form of a GRU cell.
type gruWire struct {
	In, Hidden int
	Tensors    [][]float64
}

// SaveGRU serializes a GRU cell with encoding/gob.
func SaveGRU(w io.Writer, g *GRU) error {
	wire := gruWire{In: g.InDim, Hidden: g.HiddenDim}
	for _, t := range g.Params() {
		wire.Tensors = append(wire.Tensors, append([]float64(nil), t.W...))
	}
	return gob.NewEncoder(w).Encode(wire)
}

// LoadGRU reads a GRU cell previously written by SaveGRU. Like LoadMLP it
// checks the untrusted dimensions against the decoded tensors before
// allocating.
func LoadGRU(r io.Reader) (*GRU, error) {
	var wire gruWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("nn: decoding GRU: %w", err)
	}
	// Params order: (W, U, B) for each of the z, r and h gates
	shapes := [3][2]int{{wire.Hidden, wire.In}, {wire.Hidden, wire.Hidden}, {1, wire.Hidden}}
	if want := len((&GRU{}).Params()); len(wire.Tensors) != want {
		return nil, fmt.Errorf("nn: GRU wire has %d tensors, want %d", len(wire.Tensors), want)
	}
	for i, t := range wire.Tensors {
		if sh := shapes[i%3]; !holds(t, sh[0], sh[1]) {
			return nil, fmt.Errorf("nn: GRU tensor %d has %d values, want %d×%d (in %d, hidden %d)", i, len(t), sh[0], sh[1], wire.In, wire.Hidden)
		}
	}
	g := newGRU(wire.In, wire.Hidden)
	for i, t := range g.Params() {
		copy(t.W, wire.Tensors[i])
	}
	return g, nil
}
