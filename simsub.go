// Package simsub is a Go implementation of similar subtrajectory search
// (the SimSub problem): given a data trajectory T and a query trajectory Tq,
// find the contiguous portion of T most similar to Tq under an abstract
// trajectory similarity measure.
//
// It reproduces "Efficient and Effective Similar Subtrajectory Search with
// Deep Reinforcement Learning" (Wang, Long, Cong, Liu; PVLDB 2020),
// including the exact algorithm ExactS, the size-restricted SizeS, the
// splitting heuristics PSS/POS/POS-D, the deep-reinforcement-learning
// searches RLS and RLS-Skip, the competitor methods Spring, UCR,
// Random-S and SimTra, three similarity measures (DTW, discrete Fréchet
// and a t2vec-style learned measure) plus extension measures (ERP, EDR,
// CDTW, EDS, EDwP), an R-tree database index and the paper's full
// experiment harness. Beyond the reproduction, a sharded concurrent
// serving layer (Engine, exposed over HTTP by cmd/simsubd) answers top-k
// queries under heavy traffic. It serves the registered measures (dtw,
// frechet, erp, edr; MeasureNames) and t2vec, bound to the encoder
// registered on the engine, under the measure-agnostic searches; the
// competitors and CDTW, EDS and EDwP are library constructors only. See DESIGN.md for the system inventory and architecture;
// the experiment harness reproducing the paper's tables is cmd/experiments
// (run it with -help for the knobs).
//
// # Quick start
//
//	data := simsub.FromXY(0,0, 1,0, 2,0, 3,1, 4,2)
//	query := simsub.FromXY(2,0, 3,1)
//	res := simsub.Exact(simsub.DTW()).Search(data, query)
//	fmt.Println(res.Interval, res.Dist) // the most similar subtrajectory
//
// For database-scale search, build a Database (optionally R-tree indexed)
// and call TopK. For the learned searches, train a policy with TrainPolicy
// and wrap it with RL.
package simsub

import (
	"math/rand"

	"simsub/api"
	"simsub/client"
	"simsub/internal/core"
	"simsub/internal/engine"
	"simsub/internal/geo"
	"simsub/internal/rl"
	"simsub/internal/router"
	"simsub/internal/sim"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// Core re-exported types. These aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Point is a timestamped planar location.
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// Trajectory is an ordered sequence of points.
	Trajectory = traj.Trajectory
	// Interval identifies the subtrajectory T[I,J] (0-based, inclusive).
	Interval = traj.Interval
	// Measure is an abstract trajectory dissimilarity (smaller = more
	// similar); see Sim for the similarity conversion Θ = 1/(1+d).
	Measure = sim.Measure
	// Incremental extends a subtrajectory distance one point at a time.
	Incremental = sim.Incremental
	// Algorithm is a SimSub search algorithm.
	Algorithm = core.Algorithm
	// Result is a search outcome: interval, distance, work counter.
	Result = core.Result
	// Database is a searchable trajectory collection with optional R-tree.
	Database = core.Database
	// Match is a ranked top-k answer.
	Match = core.Match
	// Policy is a trained DQN splitting policy for RLS / RLS-Skip.
	Policy = rl.Policy
	// T2VecModel is the learned t2vec-style measure.
	T2VecModel = t2vec.Model
	// Engine is the sharded, concurrent trajectory-search service layer
	// (per-shard indexes, bounded worker pool, LRU result cache); it backs
	// the cmd/simsubd HTTP daemon and is usable in-process too.
	Engine = engine.Engine
	// EngineConfig sizes an Engine (shards, workers, cache, index kind).
	EngineConfig = engine.Config
	// EngineIndexKind selects an Engine's per-shard pruning structure.
	EngineIndexKind = engine.IndexKind
	// EngineQuery is one top-k request against an Engine: the full v2
	// query spec (measure/algorithm parameters, spatial filter, distinct
	// collapsing, offset/limit paging).
	EngineQuery = engine.Query
	// EngineParams carries per-query measure/algorithm parameter
	// overrides (EDR eps, POS-D delay).
	EngineParams = engine.Params
	// EngineMatch is one ranked Engine answer, identified by global ID.
	EngineMatch = engine.Match
	// EngineStats is a snapshot of Engine counters.
	EngineStats = engine.Stats
	// EnginePolicyInfo describes an Engine's registered RLS/RLS-Skip
	// policy (Engine.SetPolicy / Engine.Policy); with one registered, the
	// engine serves the learned "rls" / "rls-skip" algorithms.
	EnginePolicyInfo = engine.PolicyInfo

	// Searcher answers batched v2 queries; *Engine (in-process) and
	// *Client (remote) both satisfy it, so local and remote search are
	// interchangeable.
	Searcher = api.Searcher
	// StreamSearcher additionally delivers one query's matches
	// incrementally; *Engine and *Client both satisfy it.
	StreamSearcher = api.StreamSearcher
	// Client is the HTTP client of a simsubd server (package client).
	Client = client.Client
	// ClientRetryPolicy tunes the client's opt-in retry with exponential
	// backoff and jitter (client.WithRetry).
	ClientRetryPolicy = client.RetryPolicy
	// Router is the distributed coordinator over a simsubd fleet: it
	// places trajectories by consistent hashing, scatter-gathers top-k
	// with bound propagation and hedged replica requests, and satisfies
	// the same Searcher interfaces as *Engine and *Client. It backs the
	// cmd/simsubrouter HTTP daemon and is usable in-process too.
	Router = router.Router
	// RouterConfig sizes a Router (nodes, replication, hedging, retries).
	RouterConfig = router.Config
	// APIPartial is the typed degradation summary of a scatter-gather
	// answer whose shard nodes were not all reachable.
	APIPartial = api.Partial
	// APIRouterStats is the coordinator tier's own telemetry.
	APIRouterStats = api.RouterStats
	// APIQuery is the wire form of a /v2/query batch.
	APIQuery = api.Query
	// APIQuerySpec is the wire form of one top-k query spec.
	APIQuerySpec = api.QuerySpec
	// APIMatch is the wire form of one ranked answer.
	APIMatch = api.Match
	// APIQueryResponse answers a /v2/query batch, one result per spec.
	APIQueryResponse = api.QueryResponse
	// APIQueryResult is one spec's outcome within a batch.
	APIQueryResult = api.QueryResult
	// APITrajectory is the wire form of a trajectory.
	APITrajectory = api.Trajectory
	// APIRect is the wire form of a spatial filter rectangle.
	APIRect = api.Rect
	// APIStreamSummary is the trailing record of a match stream.
	APIStreamSummary = api.StreamSummary
	// APIError is the typed error of the query API; branch on its Code.
	APIError = api.Error
	// APIErrorCode classifies an APIError ("invalid_argument", ...).
	APIErrorCode = api.Code
)

// Typed API error codes (see api.Code).
const (
	ErrInvalidArgument = api.CodeInvalidArgument
	ErrNotFound        = api.CodeNotFound
	ErrTimeout         = api.CodeTimeout
	ErrCanceled        = api.CodeCanceled
	ErrOverloaded      = api.CodeOverloaded
	ErrTooLarge        = api.CodeTooLarge
	ErrInternal        = api.CodeInternal
)

// NewClient builds the HTTP client of a simsubd server; the result
// satisfies the same Searcher interface as an in-process Engine.
func NewClient(baseURL string, opts ...client.Option) *Client {
	return client.New(baseURL, opts...)
}

// NewRouter builds the distributed coordinator over a simsubd fleet; the
// result satisfies the same Searcher interfaces as an in-process Engine or
// a single-node Client.
func NewRouter(cfg RouterConfig) (*Router, error) { return router.New(cfg) }

// New builds a trajectory from points.
func New(pts ...Point) Trajectory { return traj.New(pts...) }

// FromXY builds a trajectory from alternating x,y coordinates with unit
// time steps. It panics on an odd coordinate count.
func FromXY(xy ...float64) Trajectory { return traj.FromXY(xy...) }

// Sim converts a dissimilarity to the paper's similarity Θ = 1/(1+d).
func Sim(d float64) float64 { return sim.Sim(d) }

// DTW returns the Dynamic Time Warping measure.
func DTW() Measure { return sim.DTW{} }

// Frechet returns the discrete Fréchet measure.
func Frechet() Measure { return sim.Frechet{} }

// CDTW returns band-constrained DTW with relative Sakoe-Chiba width r.
func CDTW(r float64) Measure { return sim.CDTW{R: r} }

// ERP returns the Edit distance with Real Penalty measure (gap at origin).
func ERP() Measure { return sim.ERP{} }

// EDR returns the Edit Distance on Real sequence measure with tolerance eps.
func EDR(eps float64) Measure { return sim.EDR{Eps: eps} }

// EDS returns the segment-based edit distance in the spirit of EDS (Xie,
// SIGMOD 2014).
func EDS() Measure { return sim.EDS{} }

// EDwP returns the coverage-weighted segment edit distance in the spirit of
// EDwP (Ranu et al., ICDE 2015).
func EDwP() Measure { return sim.EDwP{} }

// MeasureByName constructs a registered measure: "dtw", "frechet", "erp"
// or "edr" (MeasureNames lists them). t2vec needs a model: train one with
// TrainT2Vec. CDTW, EDS and EDwP are not registered; build them with their
// constructors.
func MeasureByName(name string) (Measure, error) { return sim.ByName(name) }

// MeasureNames lists all registered measure names, the measures that need
// no model.
func MeasureNames() []string { return sim.Names() }

// TrainT2Vec trains a t2vec-style encoder on the trajectories (see
// t2vec.TrainConfig defaults: hidden 16, Adam 0.001). The returned model is
// a Measure.
func TrainT2Vec(trajs []Trajectory, hidden, epochs int, seed int64) (*T2VecModel, error) {
	m, _, err := t2vec.Train(trajs, t2vec.TrainConfig{Hidden: hidden, Epochs: epochs, Seed: seed})
	return m, err
}

// TrainT2VecTokens trains the cell-token variant (the published t2vec's
// pipeline): points are discretized into a grid×grid lattice and the
// encoder consumes learned per-cell embeddings.
func TrainT2VecTokens(trajs []Trajectory, hidden, epochs, grid int, seed int64) (*T2VecModel, error) {
	m, _, err := t2vec.Train(trajs, t2vec.TrainConfig{
		Hidden: hidden, Epochs: epochs, TokenGrid: grid, Seed: seed,
	})
	return m, err
}

// Exact returns the exact search algorithm (ExactS, Algorithm 1).
func Exact(m Measure) Algorithm { return core.ExactS{M: m} }

// Size returns the size-restricted search (SizeS) with soft margin xi.
func Size(m Measure, xi int) Algorithm { return core.SizeS{M: m, Xi: xi} }

// PrefixSuffix returns the PSS splitting search (Algorithm 2).
func PrefixSuffix(m Measure) Algorithm { return core.PSS{M: m} }

// PrefixOnly returns the POS splitting search.
func PrefixOnly(m Measure) Algorithm { return core.POS{M: m} }

// PrefixOnlyDelay returns the POS-D splitting search with delay d.
func PrefixOnlyDelay(m Measure, d int) Algorithm { return core.POSD{M: m, D: d} }

// RL returns the reinforcement-learning search (RLS, or RLS-Skip when the
// policy was trained with skip actions).
func RL(m Measure, p *Policy) Algorithm { return core.RLS{M: m, Policy: p} }

// Spring returns the SPRING DTW subsequence search (band 0 or 1 =
// unconstrained).
func Spring(band float64) Algorithm { return core.Spring{Band: band} }

// UCRSearch returns the adapted UCR suite search with band width r.
func UCRSearch(r float64) Algorithm { return core.UCR{Band: r} }

// RandomSample returns the Random-S baseline drawing the given number of
// subtrajectory samples.
func RandomSample(m Measure, samples int, seed int64) Algorithm {
	return core.RandomS{M: m, Samples: samples, Seed: seed}
}

// WholeTrajectory returns the SimTra baseline (whole trajectory as answer).
func WholeTrajectory(m Measure) Algorithm { return core.SimTra{M: m} }

// PolicyConfig configures TrainPolicy. Zero values use the paper's
// defaults (§6.1): hidden 20, γ 0.95, ε-min 0.05 with decay 0.99, replay
// 2000, Adam 0.001.
type PolicyConfig struct {
	// K is the number of skip actions (0 → RLS, >0 → RLS-Skip; paper k=3).
	K int
	// UseSuffix includes the Θsuf state component (recommended for
	// DTW/Fréchet, not for t2vec).
	UseSuffix bool
	// Episodes is the training episode count.
	Episodes int
	// DoubleDQN enables the Double-DQN bootstrap (an extension beyond the
	// paper's vanilla DQN).
	DoubleDQN bool
	// Seed seeds training.
	Seed int64
	// Verbose receives progress lines when non-nil.
	Verbose func(format string, args ...any)
}

// TrainPolicy trains a DQN splitting policy per Algorithm 3 on uniformly
// sampled (data, query) pairs.
func TrainPolicy(data, queries []Trajectory, m Measure, cfg PolicyConfig) (*Policy, error) {
	p, _, err := rl.Train(data, queries, m, rl.Config{
		K:             cfg.K,
		UseSuffix:     cfg.UseSuffix,
		SimplifyState: cfg.K > 0,
		Episodes:      cfg.Episodes,
		DoubleDQN:     cfg.DoubleDQN,
		Seed:          cfg.Seed,
		Verbose:       cfg.Verbose,
	})
	return p, err
}

// NewDatabase builds a searchable database; withIndex enables the MBR
// R-tree pruning of §6.2(4).
func NewDatabase(ts []Trajectory, withIndex bool) *Database {
	return core.NewDatabase(ts, withIndex)
}

// Engine per-shard index kinds (the zero value is the R-tree).
const (
	EngineRTree   = engine.RTree
	EngineScanAll = engine.ScanAll
)

// NewEngine builds the sharded concurrent search service. The zero config
// is usable: 4 shards, GOMAXPROCS workers, R-tree indexes, no cache.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// TopKSubtrajectories returns the k most similar subtrajectories of t to q
// in ascending distance order by exact enumeration (the top-k extension
// sketched in §3.1). With distinct, overlapping answers are collapsed to
// the best representative.
func TopKSubtrajectories(m Measure, t, q Trajectory, k int, distinct bool) []Result {
	return core.TopKExact(m, t, q, k, distinct)
}

// TopKSubtrajectoriesApprox is the splitting-based (PSS-process)
// approximate top-k, at O(n·Φinc) cost.
func TopKSubtrajectoriesApprox(m Measure, t, q Trajectory, k int, distinct bool) []Result {
	return core.TopKSplit(m, t, q, k, distinct)
}

// RandomWalk generates a simple random-walk trajectory — a convenience for
// examples and tests.
func RandomWalk(n int, step float64, seed int64) Trajectory {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	x, y := rng.Float64(), rng.Float64()
	for i := range pts {
		x += rng.NormFloat64() * step
		y += rng.NormFloat64() * step
		pts[i] = Point{X: x, Y: y, T: float64(i)}
	}
	return New(pts...)
}
