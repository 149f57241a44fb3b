package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"simsub/api"
)

// reflectLoad is the /v2/load body json.Marshal wrote before api.Trajectory
// had its own encoder: the same shape, encoded by reflection.
func reflectLoad(t *testing.T, ts []api.Trajectory) []byte {
	t.Helper()
	type wire struct {
		Points [][]float64 `json:"points"`
	}
	var req struct {
		Trajectories []wire `json:"trajectories"`
	}
	if ts != nil {
		req.Trajectories = make([]wire, len(ts))
		for i, tr := range ts {
			req.Trajectories[i].Points = tr.Points
		}
	}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// readAllBy reads r to EOF n bytes at a time, as a transport with an
// n-byte copy buffer would.
func readAllBy(r io.Reader, n int) ([]byte, error) {
	var out []byte
	p := make([]byte, n)
	for {
		k, err := r.Read(p)
		out = append(out, p[:k]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// TestLoadBodyBytes: whatever the batch and however the transport reads it,
// the streamed body is the reflection encoder's bytes, and so is
// json.Marshal of the request now that it goes through MarshalJSON.
func TestLoadBodyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big := make([]api.Trajectory, 3000) // ~20 chunks
	for i := range big {
		pts := make([][]float64, 2+rng.Intn(40))
		for j := range pts {
			pts[j] = []float64{rng.NormFloat64() * 1e3, rng.Float64() * 1e-7, float64(j)}[:2+rng.Intn(2)]
		}
		big[i].Points = pts
	}
	long := []api.Trajectory{{Points: make([][]float64, 20000)}} // one trajectory over a chunk
	for j := range long[0].Points {
		long[0].Points[j] = []float64{float64(j), -float64(j) / 3}
	}
	batches := map[string][]api.Trajectory{
		"nil":             nil,
		"empty":           {},
		"nil points":      {{}, {Points: [][]float64{}}, {Points: [][]float64{nil, {}, {1}}}},
		"edge floats":     {{Points: [][]float64{{math.Copysign(0, -1), 1e-7, 1e21, math.MaxFloat64, math.SmallestNonzeroFloat64}}}},
		"many chunks":     big,
		"one long record": long,
	}
	for name, ts := range batches {
		want := reflectLoad(t, ts)
		if buf, err := json.Marshal(api.LoadRequest{Trajectories: ts}); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("%s: json.Marshal(LoadRequest) differs from reflection (err %v)", name, err)
		}
		for _, n := range []int{1, 7, 4096, 32 << 10, 1 << 20} {
			if name == "many chunks" && n < 4096 {
				continue
			}
			src := &loadSource{ts: ts}
			body, _ := src.open()
			got, err := readAllBy(body, n)
			if err != nil {
				t.Fatalf("%s, reads of %d: %v", name, n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, reads of %d: body differs from reflection\n got %.80q\nwant %.80q", name, n, got, want)
			}
		}
	}
}

// TestLoadBodyBounded: each Read encodes about a chunk, not the batch, and
// once the load has returned a body reads nothing more of the batch.
func TestLoadBodyBounded(t *testing.T) {
	ts := make([]api.Trajectory, 5000)
	for i := range ts {
		ts[i].Points = [][]float64{{float64(i), 1.5}, {2.25, float64(-i)}}
	}
	src := &loadSource{ts: ts}
	body, _ := src.open()
	p := make([]byte, 1<<20)
	n, err := body.Read(p)
	if err != nil || n < loadChunk || n > loadChunk+64 {
		t.Fatalf("first read: %d bytes (%v), want just over %d", n, err, loadChunk)
	}
	if lb := body.(*loadBody); lb.next == len(ts) {
		t.Fatal("the first read encoded the whole batch")
	}
	src.detach()
	if _, err := body.Read(p); !errors.Is(err, errLoadDetached) {
		t.Fatalf("read after detach: %v, want errLoadDetached", err)
	}
}
