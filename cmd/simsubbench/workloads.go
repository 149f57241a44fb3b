package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"simsub/api"
	"simsub/internal/dataset"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// params sizes one workload at one scale. The full-scale values were tuned
// once on the 2-core reference box so that a cycle (set-up, one timed round,
// the recoveries) takes about three seconds and a run holds six or more;
// they are frozen with BENCHMARK.json.
type params struct {
	Clients int // closed-loop client goroutines

	// CycleSeconds is what one cycle takes on the reference box; --seconds
	// over it is the number of cycles a run makes.
	CycleSeconds float64

	Nodes  int // engines behind the edge; >1 puts internal/router in front
	Shards int
	Cache  int // engine result-cache entries (0 = off)

	Corpus         int // trajectories loaded in set-up
	MinLen, MaxLen int // trajectory length bounds (0 = Porto defaults)
	LoadBatch      int // records per set-up load POST

	Ops        int // specs in the op list of one round
	Verify     int // specs checked against the exact oracle
	Warmup     int // ops at the end of each set-up, outside the timed round
	QMin, QMax int // query length bounds

	// learned_scan: the RLS-Skip policy (K=3, UseSuffix).
	TrainPool, TrainPairs, Episodes, CompileRes int

	// router_mixed: the t2vec encoder and the ann knob of 30% of its specs.
	EncDim, EncTrain, EncEpochs int
	ANNCandidates, ANNProbes    int

	// ingest_query: records streamed per timed round, in how many POSTs,
	// and after how many records the benchmark calls Store.Snapshot.
	StreamRecords, StreamPosts, SnapshotEvery int
}

type workload struct {
	Name string
	Why  string
	Full params
	// Smoke is the size used by the smoke test: hundreds of trajectories.
	Smoke params
}

var workloads = []workload{
	{
		Name: "exact_scan",
		Why:  "exact DTW/Frechet top-k on one node: sim DP kernels and core's LB cascade do the work, serving tiers idle",
		Full: params{CycleSeconds: 4.5, Clients: 1, Nodes: 1, Shards: 4, Corpus: 2500, LoadBatch: 250,
			Ops: 240, Verify: 120, Warmup: 24, QMin: 14, QMax: 26},
		Smoke: params{CycleSeconds: 1, Clients: 1, Nodes: 1, Shards: 4, Corpus: 200, LoadBatch: 100,
			Ops: 24, Verify: 8, Warmup: 4, QMin: 10, QMax: 20},
	},
	{
		Name: "learned_scan",
		Why:  "PSS/POS/RLS-Skip on the same node: core splitting searches, rl table walk and sim incremental state; the only non-trivial approx_ratio",
		Full: params{CycleSeconds: 5.5, Clients: 1, Nodes: 1, Shards: 4, Corpus: 3000, LoadBatch: 250,
			Ops: 400, Verify: 400, Warmup: 24, QMin: 14, QMax: 26,
			TrainPool: 60, TrainPairs: 30, Episodes: 30, CompileRes: 32},
		Smoke: params{CycleSeconds: 1, Clients: 1, Nodes: 1, Shards: 4, Corpus: 200, LoadBatch: 100,
			Ops: 32, Verify: 16, Warmup: 4, QMin: 10, QMax: 20,
			TrainPool: 30, TrainPairs: 15, Episodes: 8, CompileRes: 16},
	},
	{
		Name: "router_mixed",
		Why:  "router over 2 nodes, short trajectories, cache/filter/ann mix: wire codec, scatter/merge, admission, cache and ann dominate while the scan is tiny",
		Full: params{CycleSeconds: 4.5, Clients: 2, Nodes: 2, Shards: 2, Cache: 256, Corpus: 4000, MinLen: 8, MaxLen: 24, LoadBatch: 500,
			Ops: 2400, Verify: 400, Warmup: 80, QMin: 6, QMax: 12,
			EncDim: 16, EncTrain: 100, EncEpochs: 2, ANNCandidates: 250, ANNProbes: 2},
		Smoke: params{CycleSeconds: 1, Clients: 2, Nodes: 2, Shards: 2, Cache: 64, Corpus: 400, MinLen: 8, MaxLen: 24, LoadBatch: 100,
			Ops: 120, Verify: 40, Warmup: 10, QMin: 6, QMax: 12,
			EncDim: 8, EncTrain: 40, EncEpochs: 1, ANNCandidates: 60, ANNProbes: 2},
	},
	{
		Name: "ingest_query",
		Why:  "NDJSON stream ingest beside PSS reads on one durable node: storage append/snapshot, NDJSON decode and Engine.Add's index rebuild under the shard lock",
		Full: params{CycleSeconds: 3.4, Clients: 1, Nodes: 1, Shards: 4, Corpus: 3000, MinLen: 8, MaxLen: 24, LoadBatch: 500,
			Ops: 200, Verify: 200, Warmup: 20, QMin: 6, QMax: 12,
			StreamRecords: 30000, StreamPosts: 15, SnapshotEvery: 10000},
		Smoke: params{CycleSeconds: 1, Clients: 1, Nodes: 1, Shards: 4, Corpus: 200, MinLen: 8, MaxLen: 24, LoadBatch: 100,
			Ops: 20, Verify: 10, Warmup: 4, QMin: 6, QMax: 12,
			StreamRecords: 600, StreamPosts: 3, SnapshotEvery: 200},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one operation of a round's list.
type op struct {
	Spec  api.QuerySpec
	Class string // measure/algorithm[+filter][+ann], for reporting
	// RepeatOf is the list position this op repeats, or -1. Repeats are what
	// sets router_mixed's cache hit ratio, the same way every round.
	RepeatOf int
}

// inputs is everything a run feeds the system: a pure function of (workload,
// scale, seed). The system under test only ever sees these values.
type inputs struct {
	corpus  []traj.Trajectory  // loaded in set-up; ID == position == global ID
	batches [][]api.Trajectory // corpus in wire form, one element per load POST
	ops     []op
	verify  []int // positions in ops checked against the oracle

	stream  []traj.Trajectory // ingest_query: records streamed in the timed phase
	posts   [][]byte          // ingest_query: the NDJSON body of each POST
	postLen []int             // ingest_query: records per POST

	policy  *rl.Policy
	encoder *t2vec.Model

	points   int // points in corpus
	trainRL  time.Duration
	trainEnc time.Duration
}

// generate builds the inputs. Every random draw comes from rngs seeded by
// the seed and a fixed per-purpose offset, so adding a draw in one place
// does not shift another.
func generate(w workload, p params, seed int64) (*inputs, error) {
	in := &inputs{}
	in.corpus = dataset.Generate(dataset.Config{Kind: dataset.Porto, N: p.Corpus, Seed: seed*1000 + 1, MinLen: p.MinLen, MaxLen: p.MaxLen})
	in.points = dataset.TotalPoints(in.corpus)
	for i := 0; i < len(in.corpus); i += p.LoadBatch {
		j := min(i+p.LoadBatch, len(in.corpus))
		b := make([]api.Trajectory, 0, j-i)
		for _, t := range in.corpus[i:j] {
			b = append(b, api.FromTraj(t))
		}
		in.batches = append(in.batches, b)
	}

	// Queries are clipped from held-out trajectories of the same family, so
	// no query has a zero-distance copy of itself in the corpus.
	distinct := p.Ops
	if w.Name == "router_mixed" {
		distinct = p.Ops - p.Ops/4
	}
	held := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: distinct, Seed: seed*1000 + 2, MinLen: p.QMax, MaxLen: 2 * p.QMax})
	rng := rand.New(rand.NewSource(seed*1000 + 3))
	queries := make([]traj.Trajectory, distinct)
	for i, t := range held {
		n := p.QMin + rng.Intn(p.QMax-p.QMin+1)
		s := rng.Intn(t.Len() - n + 1)
		queries[i] = t.Sub(s, s+n-1)
	}

	switch w.Name {
	case "exact_scan":
		in.ops = classOps(rng, queries, []class{{"dtw", "exacts", 1}, {"frechet", "exacts", 1}}, 10)
	case "learned_scan":
		in.ops = classOps(rng, queries, []class{{"dtw", "pss", 3}, {"dtw", "pos", 2}, {"dtw", "rls-skip", 3}}, 10)
		if err := in.trainPolicy(p, seed); err != nil {
			return nil, err
		}
	case "router_mixed":
		in.ops = mixedOps(rng, queries, p)
		if err := in.trainEncoder(p, seed); err != nil {
			return nil, err
		}
	case "ingest_query":
		in.ops = classOps(rng, queries, []class{{"dtw", "pss", 1}}, 10)
		if err := in.buildStream(p, seed); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.Name)
	}

	// The verify sample is spread evenly over the list, so it holds every
	// class in the list's own proportions; repeats are skipped (their
	// originals already stand for them).
	step := float64(len(in.ops)) / float64(p.Verify)
	for i := 0; i < p.Verify; i++ {
		pos := int(float64(i) * step)
		for pos < len(in.ops) && in.ops[pos].RepeatOf >= 0 {
			pos++
		}
		if pos < len(in.ops) && (len(in.verify) == 0 || in.verify[len(in.verify)-1] != pos) {
			in.verify = append(in.verify, pos)
		}
	}
	return in, nil
}

type class struct {
	Measure, Algorithm string
	Weight             int
}

// classOps deals the queries to the classes in exact weight proportions
// (stratified, so the mix does not vary with the seed) and shuffles the
// result.
func classOps(rng *rand.Rand, queries []traj.Trajectory, classes []class, k int) []op {
	total := 0
	for _, c := range classes {
		total += c.Weight
	}
	ops := make([]op, 0, len(queries))
	for ci, c := range classes {
		n := len(queries) * c.Weight / total
		if ci == len(classes)-1 {
			n = len(queries) - len(ops)
		}
		for _, q := range queries[len(ops) : len(ops)+n] {
			ops = append(ops, op{
				Spec:     api.QuerySpec{Query: api.FromTraj(q), K: k, Measure: c.Measure, Algorithm: c.Algorithm},
				Class:    c.Measure + "/" + c.Algorithm,
				RepeatOf: -1,
			})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// mixedOps builds router_mixed's list: measure x algorithm x k cycled in
// exact proportions over the distinct queries, 30% of them with an MBR
// filter over ~10% of the extent, 30% with the ann prefilter, shuffled, and
// then a repeat of an op 4..100 positions earlier inserted after every
// third op, so 25% of the list can hit the result cache.
func mixedOps(rng *rand.Rand, queries []traj.Trajectory, p params) []op {
	measures := []string{"dtw", "frechet", "edr"}
	algs := []string{"exacts", "pss"}
	ks := []int{1, 10, 50}
	base := make([]op, len(queries))
	for i, q := range queries {
		m, a, k := measures[i%3], algs[(i/3)%2], ks[(i/6)%3]
		spec := api.QuerySpec{Query: api.FromTraj(q), K: k, Measure: m, Algorithm: a}
		cl := m + "/" + a
		// i/18 walks the 18 combinations' repetitions; spread the 30% knobs
		// over them with two coprime strides so they are independent of the
		// combination and of each other.
		if (i/18*7+i)%10 < 3 {
			spec.Filter = filterAround(q)
			cl += "+filter"
		}
		if (i/18*3+i*7)%10 < 3 {
			spec.ANN = &api.ANNSpec{Candidates: p.ANNCandidates, Probes: p.ANNProbes}
			cl += "+ann"
		}
		base[i] = op{Spec: spec, Class: cl, RepeatOf: -1}
	}
	rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })
	ops := make([]op, 0, p.Ops)
	for i, o := range base {
		ops = append(ops, o)
		if i%3 == 2 && len(ops) < p.Ops {
			back := 4 + rng.Intn(97)
			if back > len(ops) {
				back = len(ops)
			}
			src := len(ops) - back
			for ops[src].RepeatOf >= 0 {
				src = ops[src].RepeatOf
			}
			r := ops[src]
			r.RepeatOf = src
			ops = append(ops, r)
		}
	}
	return ops
}

// filterAround is a square of a tenth of the unit extent's area centred on
// the query and clamped to the extent.
func filterAround(q traj.Trajectory) *api.Rect {
	side := math.Sqrt(0.1)
	mbr := q.MBR()
	cx, cy := (mbr.MinX+mbr.MaxX)/2, (mbr.MinY+mbr.MaxY)/2
	x0 := math.Min(math.Max(cx-side/2, 0), 1-side)
	y0 := math.Min(math.Max(cy-side/2, 0), 1-side)
	return &api.Rect{MinX: x0, MinY: y0, MaxX: x0 + side, MaxY: y0 + side}
}

func (in *inputs) trainPolicy(p params, seed int64) error {
	start := time.Now()
	pool := in.corpus[:p.TrainPool]
	pairs := dataset.Pairs(pool, p.TrainPairs, p.QMin, p.QMax, seed*1000+4)
	data := make([]traj.Trajectory, len(pairs))
	queries := make([]traj.Trajectory, len(pairs))
	for i, pr := range pairs {
		data[i], queries[i] = pr.Data, pr.Query
	}
	pol, _, err := rl.Train(data, queries, sim.DTW{}, rl.Config{K: 3, UseSuffix: true, Episodes: p.Episodes, Seed: seed*1000 + 5})
	if err != nil {
		return fmt.Errorf("training the RLS-Skip policy: %w", err)
	}
	in.policy, in.trainRL = pol, time.Since(start)
	return nil
}

func (in *inputs) trainEncoder(p params, seed int64) error {
	start := time.Now()
	m, _, err := t2vec.Train(in.corpus[:p.EncTrain], t2vec.TrainConfig{Hidden: p.EncDim, Epochs: p.EncEpochs, MaxLen: p.MaxLen, Seed: seed*1000 + 6})
	if err != nil {
		return fmt.Errorf("training the t2vec encoder: %w", err)
	}
	in.encoder, in.trainEnc = m, time.Since(start)
	return nil
}

func (in *inputs) buildStream(p params, seed int64) error {
	in.stream = dataset.Generate(dataset.Config{Kind: dataset.Porto, N: p.StreamRecords, Seed: seed*1000 + 7, MinLen: p.MinLen, MaxLen: p.MaxLen})
	per := (p.StreamRecords + p.StreamPosts - 1) / p.StreamPosts
	for i := 0; i < len(in.stream); i += per {
		j := min(i+per, len(in.stream))
		var buf bytes.Buffer
		if err := traj.WriteNDJSON(&buf, in.stream[i:j]); err != nil {
			return fmt.Errorf("encoding the ingest stream: %w", err)
		}
		in.posts = append(in.posts, buf.Bytes())
		in.postLen = append(in.postLen, j-i)
	}
	return nil
}
