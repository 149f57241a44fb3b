package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"simsub/api"
)

// config is one invocation's settings.
type config struct {
	Seed    int64
	Seconds float64 // timed-phase budget
	Trace   bool
	Smoke   bool
	Scratch string // directory for data dirs and trace output, inside the checkout
	Log     func(format string, args ...any)
}

// minCycles is the fewest cycles a run makes whatever --seconds is: a
// median needs three.
const minCycles = 3

// failures counts failed operations and keeps the first few reasons.
type failures struct {
	mu      sync.Mutex
	n       int
	reasons []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.reasons) < 8 {
		f.reasons = append(f.reasons, fmt.Sprintf(format, args...))
	}
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// harness carries one workload run.
type harness struct {
	cfg config
	w   workload
	p   params
	dir string // this run's scratch directory

	in *inputs
	f  *fleet

	attempted atomic.Int64
	fails     failures

	tr *tracer // the traced run's spans; nil in the timed run
}

func newHarness(cfg config, w workload) (*harness, error) {
	p := w.Full
	if cfg.Smoke {
		p = w.Smoke
	}
	dir, err := os.MkdirTemp(cfg.Scratch, w.Name+"-")
	if err != nil {
		return nil, fmt.Errorf("creating the run directory: %w", err)
	}
	return &harness{cfg: cfg, w: w, p: p, dir: dir}, nil
}

// cleanup stops the fleet and removes the run's scratch directory.
func (h *harness) cleanup() {
	if h.f != nil {
		h.f.destroy()
		h.f = nil
	}
	_ = os.RemoveAll(h.dir)
}

// setupTimes is what one set-up measured.
type setupTimes struct {
	total    time.Duration
	batches  []time.Duration // the acknowledged load POSTs alone
	records  int
	heapBase int64 // live heap with the inputs generated and no fleet yet
}

// setUp does everything between process start and the first timed op, from
// nothing: generate the inputs (training included), boot the fleet over
// fresh data directories, load the corpus durably and warm up. It leaves
// h.in and h.f ready; the caller tears the fleet down.
func (h *harness) setUp(ctx context.Context, name string) (setupTimes, error) {
	start := time.Now()
	in, err := generate(h.w, h.p, h.cfg.Seed)
	if err != nil {
		return setupTimes{}, err
	}
	// The harness's own copy of the inputs (corpus, wire batches, the ingest
	// stream and its POST bodies) dwarfs what the fleet will hold, so
	// heap_after_load_mb is read against this baseline; the stopwatch stands
	// still while it is taken.
	h.in = in
	pause := time.Now()
	st := setupTimes{heapBase: liveHeap()}
	paused := time.Since(pause)
	f, err := bootFleet(filepath.Join(h.dir, name), h.p, in)
	if err != nil {
		return st, err
	}
	h.f = f
	st.records, st.batches, err = f.load(ctx, in.batches)
	if err != nil {
		return st, err
	}
	if st.records != len(in.corpus) {
		return st, fmt.Errorf("set-up load acknowledged %d of %d records", st.records, len(in.corpus))
	}
	for i := 0; i < h.p.Warmup && i < len(in.ops); i++ {
		res, err := queryOne(ctx, f.edge, in.ops[i].Spec)
		if err == nil {
			err = checkShape(in.ops[i].Spec, res, h.trajLen)
		}
		if err != nil {
			return st, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	st.total = time.Since(start) - paused
	return st, nil
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// trajLen returns the length of stored trajectory id, or -1.
func (h *harness) trajLen(id int) int {
	switch {
	case id < 0:
		return -1
	case id < len(h.in.corpus):
		return h.in.corpus[id].Len()
	case id-len(h.in.corpus) < len(h.in.stream):
		return h.in.stream[id-len(h.in.corpus)].Len()
	}
	return -1
}

// queryOne sends one spec as its own /v2/query batch.
func queryOne(ctx context.Context, s api.Searcher, spec api.QuerySpec) (*api.QueryResult, error) {
	resp, err := s.Query(ctx, api.Query{Specs: []api.QuerySpec{spec}})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("%d results for 1 spec", len(resp.Results))
	}
	return &resp.Results[0], nil
}

// round is one replay of the op list.
type round struct {
	wall time.Duration
	lat  []time.Duration // by list position
}

// replay sends the op list once with the given number of closed-loop
// clients sharing one cursor, so the list order — and with it the cache hit
// pattern — is the same every round. via names the searcher each position
// goes through. check sees every answer and may be called from several
// goroutines, each position once.
func (h *harness) replay(ctx context.Context, via func(pos int) api.Searcher, ops []op, clients int, check func(pos int, res *api.QueryResult)) round {
	rd := round{lat: make([]time.Duration, len(ops))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos := int(next.Add(1)) - 1
				if pos >= len(ops) {
					return
				}
				t := time.Now()
				res, err := queryOne(ctx, via(pos), ops[pos].Spec)
				rd.lat[pos] = time.Since(t)
				h.attempted.Add(1)
				if err != nil {
					h.fails.add("op %d (%s): %v", pos, ops[pos].Class, err)
					continue
				}
				check(pos, res)
			}
		}()
	}
	wg.Wait()
	rd.wall = time.Since(start)
	return rd
}

// edge sends every position through the fleet's edge client.
func (h *harness) edge(int) api.Searcher { return h.f.edge }

// ingestRound is one timed round of ingest_query on a freshly preloaded
// node: the writer streams every NDJSON POST through client.LoadStream,
// snapshotting as configured, while one reader cycles the op list until the
// last acknowledgement.
type ingestRound struct {
	wall   time.Duration
	acked  int
	reader []time.Duration
}

func (h *harness) ingestOnce(ctx context.Context) ingestRound {
	var ir ingestRound
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ops := h.in.ops
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			o := ops[i%len(ops)]
			t := time.Now()
			res, err := queryOne(ctx, h.f.edge, o.Spec)
			ir.reader = append(ir.reader, time.Since(t))
			h.attempted.Add(1)
			if err == nil {
				err = checkShape(o.Spec, res, h.trajLen)
			}
			if err != nil {
				h.fails.add("reader op %d (%s): %v", i, o.Class, err)
			}
		}
	}()
	start := time.Now()
	sinceSnap := 0
	for i, body := range h.in.posts {
		resp, err := h.f.edge.LoadStream(ctx, bytes.NewReader(body))
		h.attempted.Add(1)
		switch {
		case err != nil:
			h.fails.add("ingest POST %d: %v", i, err)
			continue
		case resp.Loaded != h.in.postLen[i]:
			h.fails.add("ingest POST %d acknowledged %d of %d records", i, resp.Loaded, h.in.postLen[i])
		}
		ir.acked += resp.Loaded
		sinceSnap += resp.Loaded
		if sinceSnap >= h.p.SnapshotEvery {
			sinceSnap = 0
			if err := h.f.snapshot(); err != nil {
				h.fails.add("snapshot after POST %d: %v", i, err)
			}
		}
	}
	ir.wall = time.Since(start)
	close(done)
	wg.Wait()
	return ir
}

// percentile returns the p-quantile (0..1) of xs by the nearest-rank rule,
// the zero value for no samples.
func percentile[T cmp.Ordered](xs []T, p float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Sorted(slices.Values(xs))
	i := int(p*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median[T cmp.Ordered](xs []T) T { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
