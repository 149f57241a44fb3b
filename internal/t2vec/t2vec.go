// Package t2vec provides a data-driven trajectory similarity measure in the
// spirit of t2vec (Li et al., ICDE 2018), which the paper uses as one of its
// three instantiations of the abstract measurement Θ.
//
// The published t2vec is a GPU-trained RNN seq2seq model over discretized
// cell tokens. This reproduction (see DESIGN.md, substitutions) keeps the
// properties the SimSub algorithms actually rely on:
//
//   - a deterministic vector embedding of a trajectory computed by a
//     recurrent encoder in O(n) time (Φ = O(n+m));
//   - O(1) incremental extension: the embedding of T[i,j] follows from the
//     encoder hidden state of T[i,j-1] by a single GRU step (Φinc = O(1));
//   - O(1) distance between two embeddings (Euclidean).
//
// The encoder is a GRU over normalized point coordinates, trained as a
// sequence-to-sequence autoencoder (encoder → decoder reconstructing the
// input trajectory) with Adam, mirroring the encoder-decoder framework of
// the original.
package t2vec

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sync"

	"simsub/internal/geo"
	"simsub/internal/nn"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// DefaultHidden is the default embedding dimensionality.
const DefaultHidden = 16

// Model is a trained t2vec-style trajectory encoder. It implements
// sim.Measure: the dissimilarity between two trajectories is the Euclidean
// distance between their embeddings. A Model is safe for concurrent use.
type Model struct {
	enc *nn.GRU
	// bounds maps raw coordinates into the unit square before encoding.
	bounds geo.Rect
	// grid > 0 switches to cell-token inputs (the published t2vec's
	// pipeline): points are discretized into a grid×grid lattice and the
	// GRU consumes a learned per-cell embedding instead of coordinates.
	grid int
	// emb is the grid²×InDim token-embedding table when grid > 0.
	emb *nn.Tensor

	// single-entry query-embedding cache. The SimSub algorithms compute
	// distances of many subtrajectories against one query trajectory; the
	// paper amortizes the O(m) query encoding across those computations
	// (§3.2). The cache keys on the query's underlying point storage.
	mu     sync.Mutex
	cacheQ []geo.Point
	cacheV []float64
}

// New wraps a trained encoder with the normalization bounds it was trained
// under.
func New(enc *nn.GRU, bounds geo.Rect) *Model {
	return &Model{enc: enc, bounds: bounds}
}

// NewRandomModel builds an untrained (randomly initialized, deterministic
// for a given seed) model. Untrained encoders still define a valid
// measure — random GRU projections preserve coarse locality — and are useful
// for tests.
func NewRandomModel(hidden int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	return &Model{
		enc:    nn.NewGRU(2, hidden, rng),
		bounds: geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
	}
}

// Name implements sim.Measure.
func (m *Model) Name() string { return "t2vec" }

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.enc.HiddenDim }

// Encoder exposes the underlying GRU (for serialization and training).
func (m *Model) Encoder() *nn.GRU { return m.enc }

// Grid returns the token-grid resolution (0 for coordinate-input models).
func (m *Model) Grid() int { return m.grid }

// Bounds returns the normalization rectangle.
func (m *Model) Bounds() geo.Rect { return m.bounds }

// norm maps p into the unit square under the model bounds.
func (m *Model) norm(p geo.Point) (nx, ny float64) {
	w := m.bounds.MaxX - m.bounds.MinX
	h := m.bounds.MaxY - m.bounds.MinY
	nx, ny = 0.5, 0.5
	if w > 0 {
		nx = (p.X - m.bounds.MinX) / w
	}
	if h > 0 {
		ny = (p.Y - m.bounds.MinY) / h
	}
	return nx, ny
}

// Token returns the grid-cell token of p; -1 for coordinate-input models.
func (m *Model) Token(p geo.Point) int {
	if m.grid <= 0 {
		return -1
	}
	nx, ny := m.norm(p)
	cx := clampCell(int(nx*float64(m.grid)), m.grid)
	cy := clampCell(int(ny*float64(m.grid)), m.grid)
	return cy*m.grid + cx
}

func clampCell(c, cells int) int {
	if c < 0 {
		return 0
	}
	if c >= cells {
		return cells - 1
	}
	return c
}

// feature writes the GRU input features of p into dst (length enc.InDim):
// normalized coordinates, or the cell-token embedding for token models.
func (m *Model) feature(p geo.Point, dst []float64) {
	if m.grid > 0 {
		tok := m.Token(p)
		copy(dst, m.emb.W[tok*m.emb.Cols:(tok+1)*m.emb.Cols])
		return
	}
	dst[0], dst[1] = m.norm(p)
}

// Embed returns the embedding of t: the encoder hidden state after
// consuming all points. Cost O(n); the step scratch is allocated once per
// call, and the returned slice is an allocation of its own, exactly
// HiddenDim long, so a stored embedding pins nothing else.
func (m *Model) Embed(t traj.Trajectory) []float64 {
	h := make([]float64, m.enc.HiddenDim)
	x, s := m.scratch()
	for _, p := range t.Points {
		m.feature(p, x)
		m.enc.Step(h, x, h, s)
	}
	return h
}

// scratch allocates a feature vector and GRU step scratch in one block.
func (m *Model) scratch() (x, s []float64) {
	in := m.enc.InDim
	buf := make([]float64, in+m.enc.ScratchLen())
	return buf[:in], buf[in:]
}

// QueryEmbedding returns the (cached) embedding of q: the measure's
// computers and core.EmbedRank all score against it.
func (m *Model) QueryEmbedding(q traj.Trajectory) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(q.Points) > 0 && len(m.cacheQ) == len(q.Points) && &m.cacheQ[0] == &q.Points[0] {
		return m.cacheV
	}
	v := m.Embed(q)
	m.cacheQ = q.Points
	m.cacheV = v
	return v
}

// Dist implements sim.Measure: Euclidean distance between embeddings.
func (m *Model) Dist(t, q traj.Trajectory) float64 {
	if t.Len() == 0 || q.Len() == 0 {
		return math.Inf(1)
	}
	return euclid(m.Embed(t), m.QueryEmbedding(q))
}

func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// inc is the model's one computer, its sim.Incremental: it carries the
// encoder hidden state of the points consumed so far, and each point costs
// one GRU step (Φini = Φinc = O(1)). Push is the primitive; Init(i) is
// Reset then Push(t.Pt(i)) and Extend is Push(t.Pt(End()+1)). A stream
// (sim.NewStream) has no t.
type inc struct {
	m     *Model
	t     traj.Trajectory
	qEmb  []float64
	h     []float64
	x     []float64
	s     []float64 // GRU step scratch: a step allocates nothing
	start int       // index in t of the first point consumed since Reset
	n     int       // points consumed since Reset
}

// NewIncremental implements sim.Measure. The query embedding is computed
// once (amortized per the paper's Φ analysis).
func (m *Model) NewIncremental(t, q traj.Trajectory) sim.Incremental {
	c := &inc{
		m:    m,
		t:    t,
		qEmb: m.QueryEmbedding(q),
		h:    make([]float64, m.enc.HiddenDim),
	}
	c.x, c.s = m.scratch()
	return c
}

func (c *inc) Push(p geo.Point) float64 {
	if c.n == 0 {
		clear(c.h)
	}
	c.m.feature(p, c.x)
	c.m.enc.Step(c.h, c.x, c.h, c.s)
	c.n++
	return euclid(c.h, c.qEmb)
}

func (c *inc) Init(i int) float64 {
	c.start, c.n = i, 0
	return c.Push(c.t.Pt(i))
}

func (c *inc) Extend() float64 { return c.Push(c.t.Pt(c.start + c.n)) }

// ExtendAbandoning implements sim.Incremental. An embedding distance has no
// monotone lower bound over extensions, so it never abandons.
func (c *inc) ExtendAbandoning(float64) (float64, bool) { return c.Extend(), false }

func (c *inc) End() int { return c.start + c.n - 1 }

func (c *inc) Len() int { return c.n }

func (c *inc) Reset() { c.n = 0 }

// Save serializes the model (encoder weights, bounds and, for token
// models, the grid size and embedding table).
func (m *Model) Save(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "t2vec %d %g %g %g %g\n",
		m.grid, m.bounds.MinX, m.bounds.MinY, m.bounds.MaxX, m.bounds.MaxY); err != nil {
		return err
	}
	if m.grid > 0 {
		if _, err := fmt.Fprintf(w, "%d %d\n", m.emb.Rows, m.emb.Cols); err != nil {
			return err
		}
		for _, v := range m.emb.W {
			if _, err := fmt.Fprintf(w, "%g\n", v); err != nil {
				return err
			}
		}
	}
	return nn.SaveGRU(w, m.enc)
}

// maxParam bounds every weight and embedding value a Model accepts. No
// trained value comes near it, and under it no GRU pre-activation can
// overflow to ±Inf, so an embedding of points inside the bounds is finite.
const maxParam = 1e100

// Validate checks that the model can be evaluated: a non-empty encoder,
// finite bounds of finite extent, every parameter finite and within
// ±maxParam, and GRU inputs that match the features — two normalized
// coordinates, or for a token model a grid²×InDim embedding table.
func (m *Model) Validate() error {
	if m.enc == nil || m.enc.InDim <= 0 || m.enc.HiddenDim <= 0 {
		return fmt.Errorf("t2vec: model has no usable encoder")
	}
	b := m.bounds
	for _, v := range []float64{b.MinX, b.MinY, b.MaxX, b.MaxY, b.MaxX - b.MinX, b.MaxY - b.MinY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("t2vec: normalization bounds %v or their extent are not finite", b)
		}
	}
	params := m.enc.Params()
	switch {
	case m.grid < 0:
		return fmt.Errorf("t2vec: negative token grid %d", m.grid)
	case m.grid == 0 && m.enc.InDim != 2:
		return fmt.Errorf("t2vec: coordinate model's encoder takes %d inputs, want 2", m.enc.InDim)
	case m.grid > 0:
		if e := m.emb; e == nil || e.Rows%m.grid != 0 || e.Rows/m.grid != m.grid || e.Cols != m.enc.InDim || len(e.W) != e.Rows*e.Cols {
			return fmt.Errorf("t2vec: token model of grid %d needs a %d²×%d embedding table", m.grid, m.grid, m.enc.InDim)
		}
		params = append(params, m.emb)
	}
	for _, t := range params {
		for _, v := range t.W {
			if !(math.Abs(v) <= maxParam) {
				return fmt.Errorf("t2vec: parameter %v is not finite or exceeds ±%g", v, maxParam)
			}
		}
	}
	return nil
}

// Load reads a model previously written by Save. The input is untrusted:
// the embedding table's shape is checked against the grid before any value
// is read, the table grows only as values arrive (a header alone cannot
// size an allocation), and the decoded model must pass Validate.
func Load(r io.Reader) (*Model, error) {
	var b geo.Rect
	var tag string
	var grid int
	if _, err := fmt.Fscanf(r, "%s %d %g %g %g %g\n", &tag, &grid, &b.MinX, &b.MinY, &b.MaxX, &b.MaxY); err != nil {
		return nil, fmt.Errorf("t2vec: reading header: %w", err)
	}
	if tag != "t2vec" {
		return nil, fmt.Errorf("t2vec: bad header tag %q", tag)
	}
	var emb *nn.Tensor
	if grid > 0 {
		var rows, cols int
		if _, err := fmt.Fscanf(r, "%d %d\n", &rows, &cols); err != nil {
			return nil, fmt.Errorf("t2vec: reading embedding shape: %w", err)
		}
		if rows%grid != 0 || rows/grid != grid || cols <= 0 || cols > math.MaxInt/rows {
			return nil, fmt.Errorf("t2vec: embedding shape %d×%d does not fit grid %d", rows, cols, grid)
		}
		vals := make([]float64, 0, min(rows*cols, 1<<16))
		for range rows * cols {
			var v float64
			if _, err := fmt.Fscanf(r, "%g\n", &v); err != nil {
				return nil, fmt.Errorf("t2vec: reading embedding: %w", err)
			}
			vals = append(vals, v)
		}
		emb = &nn.Tensor{Rows: rows, Cols: cols, W: vals, G: make([]float64, len(vals))}
	}
	enc, err := nn.LoadGRU(r)
	if err != nil {
		return nil, err
	}
	m := &Model{enc: enc, bounds: b, grid: grid, emb: emb}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveFile writes the model to the named file.
func (m *Model) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return m.Save(f)
}

// LoadFile reads a model from the named file.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
