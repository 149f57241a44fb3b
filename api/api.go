// Package api defines the versioned wire types of the simsub query API:
// the JSON request/response shapes spoken by the HTTP server
// (internal/server), the HTTP client (package client) and the in-process
// engine facade (internal/engine), plus the typed error model shared by
// all three.
//
// One set of types, many front ends: the v2 endpoints (POST /v2/query,
// POST /v2/query/stream, POST /v2/load, GET /v2/trajectories/{id}, ...)
// consume these types directly, and the Searcher interface lets a program
// swap an in-process *engine.Engine for a remote *client.Client or a
// *router.Router without touching call sites.
package api

import (
	"context"
	"io"
	"math"
	"sync"
	"time"

	"simsub/internal/geo"
	"simsub/internal/traj"
)

// Version is the current (and only) wire version.
const Version = "v2"

// Defaults applied when a spec omits the field. K has no default: a spec
// must say how many matches it wants.
const (
	// DefaultMeasure is used when QuerySpec.Measure is empty.
	DefaultMeasure = "dtw"
	// DefaultTopKAlgorithm is used when QuerySpec.Algorithm is empty.
	DefaultTopKAlgorithm = "pss"
	// DefaultANNProbes is the multi-probe width used when an ANNSpec omits
	// probes.
	DefaultANNProbes = 2
)

// Trajectory is the wire form of a trajectory: points are [x, y] pairs or
// [x, y, t] triples; a missing t defaults to the point's index. IDs are
// always server-assigned (returned by the load response), so the wire form
// deliberately has no id field.
type Trajectory struct {
	Points [][]float64 `json:"points"`
}

// UnmarshalJSON decodes a trajectory with traj.Scanner's strict grammar
// (traj.UnmarshalPoints), the one every route reads trajectories with.
// "points" is the only key: encoding/json does not pass
// DisallowUnknownFields on to a method, so an unknown key is always an
// error here. A null coordinate is an error too. Otherwise it does what
// encoding/json did by reflection: null, or an object without "points",
// leaves t as it was. The points share one backing array; their arity and
// finiteness are ToTraj's to check.
func (t *Trajectory) UnmarshalJSON(data []byte) error {
	return traj.UnmarshalPoints(data, &t.Points)
}

// MarshalJSON encodes a trajectory with the trajectory encoder
// (traj.AppendPoints), the mirror of UnmarshalJSON: the bytes are the ones
// encoding/json wrote by reflection, and a NaN or ±Inf coordinate is an
// error.
func (t Trajectory) MarshalJSON() ([]byte, error) { return t.AppendJSON(nil) }

// AppendJSON appends MarshalJSON's encoding of t to dst. On error it
// returns dst as it was.
func (t Trajectory) AppendJSON(dst []byte) ([]byte, error) {
	out, err := traj.AppendPoints(append(dst, `{"points":`...), t.Points)
	if err != nil {
		return dst, err
	}
	return append(out, '}'), nil
}

// FromTraj converts an engine trajectory to wire form.
func FromTraj(t traj.Trajectory) Trajectory {
	pts := make([][]float64, t.Len())
	for i, p := range t.Points {
		pts[i] = []float64{p.X, p.Y, p.T}
	}
	return Trajectory{Points: pts}
}

// Rect is the wire form of an axis-aligned rectangle, used as the spatial
// filter of a QuerySpec.
type Rect struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// Geo converts the wire rectangle to the engine's geometry type.
func (r Rect) Geo() geo.Rect {
	return geo.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

// QuerySpec is one top-k request against the store: what to search for,
// under which measure and algorithm (with optional per-query parameters),
// over which spatial region, and which page of the ranking to return.
type QuerySpec struct {
	// Query is the query trajectory. Required, non-empty, finite.
	Query Trajectory `json:"query"`
	// K is the ranking size. Required: it must be positive and no larger
	// than the store.
	K int `json:"k"`
	// Measure names a registered similarity measure (default "dtw").
	Measure string `json:"measure,omitempty"`
	// Algorithm names a search algorithm (default "pss"). The learned
	// approximate searches "rls" and "rls-skip" additionally require a
	// policy registered on the server (simsubd -policy or
	// POST /v2/admin/policy); without one they fail as invalid_argument.
	Algorithm string `json:"algorithm,omitempty"`

	// EDREps overrides the EDR matching tolerance (measure "edr" only).
	EDREps float64 `json:"edr_eps,omitempty"`
	// POSDelay overrides the POS-D split delay (algorithm "pos-d" only).
	POSDelay int `json:"pos_delay,omitempty"`

	// Bound, when set, is a trusted upper bound on the ranking's final
	// k-th-best distance: the server seeds its shared best-so-far
	// threshold from it, so candidates provably farther than the bound
	// are pruned before the local ranking fills. All pruning comparisons
	// are strict, so matches at exactly the bound survive, but matches
	// strictly beyond it may be omitted from the answer — callers must
	// only pass bounds that make such matches irrelevant. This is the
	// threshold-propagation channel of the distributed coordinator
	// (simsubrouter), which ships its running global k-th-best to remote
	// shards so they prune like local ones. Must be finite and
	// non-negative.
	Bound *float64 `json:"bound,omitempty"`

	// AllowDegraded opts this spec into graceful degradation: when the
	// server cannot run the requested algorithm within the spec's deadline
	// budget, or is shedding its cost class under overload, it may answer
	// with a cheaper algorithm (ExactS falls back to PSS, then to the
	// compiled learned policy when one is serving) instead of rejecting.
	// A degraded answer is always explicitly marked (QueryResult.Degraded /
	// StreamSummary.Degraded); without this opt-in the server never
	// substitutes algorithms.
	AllowDegraded bool `json:"allow_degraded,omitempty"`

	// ANN, when set, swaps candidate generation from the exhaustive
	// spatial enumeration to an approximate embedding prefilter: the
	// server's per-shard LSH index proposes about Candidates trajectories
	// by embedding distance and the requested measure/algorithm reranks
	// only those, exactly. Retained matches carry distances byte-identical
	// to scoring the same candidates without the prefilter; the only
	// approximation is that a true top-k member absent from the candidate
	// set is missed. Requires an encoder registered on the server
	// (simsubd -encoder or POST /v2/admin/encoder); without one the spec
	// fails as invalid_argument.
	ANN *ANNSpec `json:"ann,omitempty"`

	// Filter, when set, restricts the search to trajectories whose MBR
	// intersects it; the restriction is pushed down to the per-shard
	// indexes.
	Filter *Rect `json:"filter,omitempty"`
	// Distinct collapses matches whose matched subtrajectories have
	// identical points (duplicate loads of the same data), keeping the
	// best-ranked representative; the answer may then hold fewer than K
	// matches.
	Distinct bool `json:"distinct,omitempty"`
	// Offset skips the first Offset matches of the ranking.
	Offset int `json:"offset,omitempty"`
	// Limit caps the number of returned matches (0 = to the end).
	Limit int `json:"limit,omitempty"`
}

// ANNSpec tunes the approximate candidate prefilter (QuerySpec.ANN).
type ANNSpec struct {
	// Candidates is the total candidate budget: the prefilter proposes
	// about this many trajectories for exact reranking. Required,
	// positive. Larger budgets raise recall and cost.
	Candidates int `json:"candidates"`
	// Probes is the multi-probe width per LSH table (default
	// DefaultANNProbes): 1 visits only each table's home bucket, higher
	// values add the nearest perturbed buckets, raising recall at slightly
	// higher index cost.
	Probes int `json:"probes,omitempty"`
}

// Query is the body of POST /v2/query: a batch of specs executed
// concurrently against one store snapshot per spec, answered with one
// QueryResult per spec in order.
type Query struct {
	Specs []QuerySpec `json:"specs"`
	// TimeoutMS bounds the whole batch (capped by the server's MaxTimeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// StreamQuery is the body of POST /v2/query/stream: a single spec whose
// matches are delivered incrementally as NDJSON StreamEvent records.
type StreamQuery struct {
	Spec QuerySpec `json:"spec"`
	// TimeoutMS bounds the search (capped by the server's MaxTimeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Match is one ranked answer: the matched subtrajectory
// [Start, End] (0-based, inclusive) of the stored trajectory TrajID.
type Match struct {
	TrajID   int     `json:"traj_id"`
	Start    int     `json:"start"`
	End      int     `json:"end"`
	Dist     float64 `json:"dist"`
	Sim      float64 `json:"sim"`
	Explored int     `json:"explored"`
}

// QueryResult is the outcome of one spec of a batch: either an error or a
// page of the ranking. A failed spec does not fail its batch.
type QueryResult struct {
	// Matches is the requested page of the ranking, ascending by distance.
	Matches []Match `json:"matches"`
	// Total is the size of the full ranking before offset/limit paging.
	Total int `json:"total"`
	// Cached reports whether the ranking came from the engine's LRU.
	Cached bool `json:"cached"`
	// Error is set when the spec failed; Matches is then empty.
	Error *Error `json:"error,omitempty"`
	// Partial, set only by the distributed coordinator, reports that one
	// or more shard nodes could not be reached: Matches is then the exact
	// ranking over the reachable portion of the corpus rather than an
	// error. Single-node servers never set it.
	Partial *Partial `json:"partial,omitempty"`
	// Degraded reports that the server substituted a cheaper algorithm
	// for the requested one. Set only when the spec opted in via
	// AllowDegraded; never on an exact answer.
	Degraded *Degraded `json:"degraded,omitempty"`
	// TookMS is the spec's wall-clock search time.
	TookMS float64 `json:"took_ms"`
}

// Degradation reasons (Degraded.Reason).
const (
	// DegradedBudget: the requested algorithm could not finish within the
	// spec's remaining deadline budget.
	DegradedBudget = "budget"
	// DegradedOverload: admission control was shedding the requested
	// algorithm's cost class.
	DegradedOverload = "overload"
)

// Degraded is the typed marker of a gracefully degraded answer: the server
// ran a cheaper algorithm than requested because the spec opted in
// (QuerySpec.AllowDegraded) and the requested one would have been rejected.
// The ranking is the substitute algorithm's honest answer — exact for PSS,
// approximate for a learned policy — never a silently truncated one.
type Degraded struct {
	// Reason says why the server degraded (DegradedBudget,
	// DegradedOverload).
	Reason string `json:"reason"`
	// From is the requested algorithm.
	From string `json:"from"`
	// To is the algorithm that actually answered.
	To string `json:"to"`
}

// Partial is the typed degradation summary of a scatter-gather answer: the
// coordinator could not reach every shard node, so the ranking covers only
// the trajectories placed on the nodes that answered. Callers that require
// complete answers should treat a non-nil Partial as a retryable failure;
// callers that prefer availability can use the matches as-is.
type Partial struct {
	// NodesTotal is the number of shard groups the query was scattered to.
	NodesTotal int `json:"nodes_total"`
	// NodesFailed is how many of them yielded no answer.
	NodesFailed int `json:"nodes_failed"`
	// Failures carries one typed cause per failed group.
	Failures []NodeFailure `json:"failures"`
}

// NodeFailure is one failed shard node of a degraded scatter-gather.
type NodeFailure struct {
	// Node is the failed node's base URL.
	Node string `json:"node"`
	// Err is the typed cause (timeout, overloaded, internal, ...).
	Err Error `json:"error"`
}

// QueryResponse answers POST /v2/query: Results[i] belongs to Specs[i].
type QueryResponse struct {
	Results []QueryResult `json:"results"`
	TookMS  float64       `json:"took_ms"`
}

// StreamEvent is one NDJSON record of POST /v2/query/stream. Exactly one
// field is set: Match records arrive as soon as a match enters the running
// top-k (so early answers stream out while the scan continues), the final
// record carries either the Summary or, after a mid-stream failure, the
// Error.
type StreamEvent struct {
	Match   *Match         `json:"match,omitempty"`
	Summary *StreamSummary `json:"summary,omitempty"`
	Error   *Error         `json:"error,omitempty"`
}

// StreamSummary is the trailing record of a match stream. Matches is the
// final ranking (after distinct collapsing and paging) and is
// authoritative: the incremental Match records are provisional — a match
// streamed early may be absent from the final ranking if better answers
// displaced it.
type StreamSummary struct {
	Matches []Match `json:"matches"`
	Total   int     `json:"total"`
	Cached  bool    `json:"cached"`
	// Emitted counts the provisional match records that preceded the
	// summary.
	Emitted int `json:"emitted"`
	// Partial reports coordinator-level degradation (see
	// QueryResult.Partial); single-node servers never set it.
	Partial *Partial `json:"partial,omitempty"`
	// Degraded reports algorithm substitution (see QueryResult.Degraded);
	// set only when the spec opted in via AllowDegraded.
	Degraded *Degraded `json:"degraded,omitempty"`
	TookMS   float64   `json:"took_ms"`
}

// LoadRequest is the body of POST /v2/load.
type LoadRequest struct {
	Trajectories []Trajectory `json:"trajectories"`
}

// ReadLoadRequest decodes a POST /v2/load body, which must be exactly one
// LoadRequest and nothing but whitespace after it, with traj.ReadBatch: the
// body is scanned once, with no reflection, and each trajectory's points
// share one backing array. It accepts and rejects what encoding/json with
// DisallowUnknownFields does, except a null coordinate, which it rejects.
// An error reading r is returned as it is.
func ReadLoadRequest(r io.Reader) (LoadRequest, error) {
	recs, err := traj.ReadBatch(r, "trajectories")
	if err != nil || recs == nil {
		return LoadRequest{}, err
	}
	ts := make([]Trajectory, len(recs))
	for i, pts := range recs {
		ts[i].Points = pts
	}
	return LoadRequest{Trajectories: ts}, nil
}

// LoadResponse answers a bulk load with the server-assigned global IDs, in
// request order.
type LoadResponse struct {
	Loaded int   `json:"loaded"`
	IDs    []int `json:"ids"`
	Total  int   `json:"total"`
}

// BulkLoadResponse answers POST /v2/load/stream. Streamed loads at
// 100k–1M records do not echo per-record IDs like LoadResponse: they are
// dense, so FirstID and Loaded determine all of them.
type BulkLoadResponse struct {
	// Loaded is the number of trajectories ingested from the stream.
	Loaded int `json:"loaded"`
	// FirstID is the global ID of the first streamed trajectory; IDs run
	// dense through FirstID+Loaded-1.
	FirstID int `json:"first_id"`
	// Total is the store size after the load.
	Total int `json:"total"`
	// TookMS is the server-side ingest wall-clock in milliseconds.
	TookMS float64 `json:"took_ms"`
}

// RecoveryInfo reports what a node's boot-time crash recovery did (see
// StatsResponse.Recovery); all counters are zero for a node started
// without a data directory.
type RecoveryInfo struct {
	// Segments is the number of log segment files read.
	Segments int `json:"segments"`
	// Records is the number of trajectory records recovered.
	Records int `json:"records"`
	// SnapshotRecords had their encoder embedding restored from the
	// newest valid snapshot (an embedding checkpoint); 0 on a node that
	// never ran with an encoder.
	SnapshotRecords int `json:"snapshot_records"`
	// Replayed is the rest of Records: every record's point count and MBR
	// are derived from the log, and these also get their embedding
	// computed afresh when an encoder is registered.
	Replayed int `json:"replayed"`
	// TornTailTruncations counts the torn or failed loads whose bytes the
	// boot discarded (see storage.RecoveryStats).
	TornTailTruncations int `json:"torn_tail_truncations"`
	// SnapshotsDiscarded counts snapshot files that failed validation.
	SnapshotsDiscarded int `json:"snapshots_discarded"`
	// WallMS is the recovery wall-clock in milliseconds.
	WallMS float64 `json:"wall_ms"`
}

// Node serving states reported in StatsResponse.State / NodeStats.State.
const (
	// StateReady: the node serves queries and loads.
	StateReady = "ready"
	// StateRecovering: the node is replaying its log and rejects queries
	// and loads with code overloaded until recovery completes.
	StateRecovering = "recovering"
)

// TrajectoryRecord answers GET /v2/trajectories/{id}.
type TrajectoryRecord struct {
	ID         int        `json:"id"`
	Trajectory Trajectory `json:"trajectory"`
}

// Stats is the wire form of the engine counters.
type Stats struct {
	Trajectories int   `json:"trajectories"`
	Points       int   `json:"points"`
	Shards       int   `json:"shards"`
	Workers      int   `json:"workers"`
	Queries      int64 `json:"queries"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
	InFlight     int64 `json:"in_flight"`
	// Pruning effectiveness of the threshold pipeline, cumulative across
	// served scans: candidates considered after index/filter pruning, those
	// dropped by the lower-bound cascade before any DP ran, and those whose
	// search was abandoned against the running k-th-best distance. The
	// remainder (CandidatesSeen - LBSkipped - EarlyAbandoned) were scored
	// in full. Cache hits perform no scan and advance no counter.
	CandidatesSeen int64 `json:"candidates_seen"`
	LBSkipped      int64 `json:"lb_skipped"`
	EarlyAbandoned int64 `json:"early_abandoned"`
	// Learned-search serving state: whether a policy is registered, its
	// algorithm name and content fingerprint, and how many queries the
	// learned searches have answered. RLSQueries and ANNQueries count by
	// the plan that answered: cache hits count, queries rejected before
	// their scan or failed during it do not, and a degraded query counts
	// under the algorithm it was degraded to. The PolicyCompile* fields
	// describe the compiled table policy when one is serving
	// (policy-compile): its per-dimension grid resolution, the
	// action-divergence rate measured against the source network at compile
	// time, and the table's own content hash, which the serving
	// PolicyFingerprint folds in.
	PolicyLoaded              bool    `json:"policy_loaded"`
	PolicyName                string  `json:"policy_name,omitempty"`
	PolicyFingerprint         string  `json:"policy_fingerprint,omitempty"`
	PolicyCompiled            bool    `json:"policy_compiled,omitempty"`
	PolicyCompileResolution   int     `json:"policy_compile_resolution,omitempty"`
	PolicyCompileDivergence   float64 `json:"policy_compile_divergence,omitempty"`
	PolicyCompiledFingerprint string  `json:"policy_compiled_fingerprint,omitempty"`
	RLSQueries                int64   `json:"rls_queries"`
	// Sampled serving-quality aggregates of the learned searches (enabled
	// by the engine's QualitySample knob; all zero while no query has been
	// sampled): the mean approximation ratio of sampled rankings against
	// the exact ranking (0 while every sampled position had a 0-distance
	// exact answer, where the ratio is undefined), the mean 1-based rank
	// of their trajectories within it (absent trajectories counting as
	// k+1), and the mean fraction of data points skip policies never
	// scanned.
	QualitySamples  int64   `json:"quality_samples"`
	ApproxRatio     float64 `json:"approx_ratio"`
	MeanRank        float64 `json:"mean_rank"`
	SkippedFraction float64 `json:"skipped_fraction"`

	// Embedding serving state: whether a trajectory encoder is registered
	// (enabling the "embed" algorithm and the ann prefilter), its
	// dimensionality / token grid / content fingerprint, how many answered
	// queries used the ann prefilter, and the sampled recall telemetry — for a
	// sampled fraction of ann-prefiltered queries the server reruns the
	// same search over the exhaustive candidate set and records the top-k
	// overlap (recall@k); MeanRecall is the lifetime mean of those samples
	// (0 while none was taken).
	EncoderLoaded      bool    `json:"encoder_loaded"`
	EncoderFingerprint string  `json:"encoder_fingerprint,omitempty"`
	EncoderDim         int     `json:"encoder_dim,omitempty"`
	EncoderGrid        int     `json:"encoder_grid,omitempty"`
	ANNQueries         int64   `json:"ann_queries"`
	RecallSamples      int64   `json:"recall_samples"`
	MeanRecall         float64 `json:"mean_recall"`

	// Overload-resilience counters: queries rejected by adaptive admission
	// control (Shed, of which ShedExpensive were unbounded exact scans or
	// stream loads — the classes shed first), queries rejected early
	// because their deadline budget could not cover the predicted scan
	// (DeadlineRejects), and queries answered by a cheaper algorithm under
	// the AllowDegraded opt-in (DegradedQueries). QueueDepth and
	// QueueWaitMS describe the admission queue right now (current waiters,
	// smoothed queue wait); Shedding reports whether admission is currently
	// in its shedding state.
	Shed            int64   `json:"shed"`
	ShedExpensive   int64   `json:"shed_expensive"`
	DeadlineRejects int64   `json:"deadline_rejects"`
	DegradedQueries int64   `json:"degraded_queries"`
	QueueDepth      int64   `json:"queue_depth"`
	QueueWaitMS     float64 `json:"queue_wait_ms"`
	Shedding        bool    `json:"shedding,omitempty"`
}

// PolicySwapRequest is the body of POST /v2/admin/policy: exactly one of
// Path (a server-local policy file, for operators colocated with the
// daemon) or PolicyB64 (the policy file's bytes, base64, for remote
// admin) must be set. CompileResolution > 0 additionally compiles the
// policy onto a dense action-lookup table at that per-dimension grid
// resolution before it serves (the O(1) table path); 0 serves the network
// directly. The new policy is validated (and compiled) before it replaces
// the old one; a rejected swap leaves the previous registration serving.
type PolicySwapRequest struct {
	Path              string `json:"path,omitempty"`
	PolicyB64         string `json:"policy_b64,omitempty"`
	CompileResolution int    `json:"compile_resolution,omitempty"`
}

// PolicyInfo answers GET and POST /v2/admin/policy: the registered
// policy's algorithm name ("RLS", "RLS-Skip" or "RLS-Skip+"), MDP shape
// and content fingerprint, plus the compiled-table descriptors when the
// table path is serving (see the PolicyCompile* fields of Stats).
type PolicyInfo struct {
	// Name is the algorithm realized by the policy: "RLS", "RLS-Skip" or
	// "RLS-Skip+".
	Name string `json:"name"`
	// K is the policy's skip-action count (0 for plain RLS).
	K int `json:"k"`
	// UseSuffix reports whether states carry the Θsuf component.
	UseSuffix bool `json:"use_suffix"`
	// SimplifyState reports RLS-Skip's skipped-point state simplification.
	SimplifyState bool `json:"simplify_state"`
	// Fingerprint is the hex form of the serving fingerprint (the policy's
	// content hash, folded with the compiled table's when one is
	// installed); it changes on every swap or recompile and is part of the
	// result-cache key.
	Fingerprint string `json:"fingerprint"`
	// Compiled reports whether a compiled table policy is serving actions;
	// the remaining fields are meaningful only then.
	Compiled bool `json:"compiled,omitempty"`
	// CompileResolution is the table's per-dimension grid resolution.
	CompileResolution int `json:"compile_resolution,omitempty"`
	// CompileDivergence is the fraction of compile-time validation probes
	// where the network's greedy action differs from the table's.
	CompileDivergence float64 `json:"compile_divergence,omitempty"`
	// CompiledFingerprint is the hex content hash of the table itself.
	CompiledFingerprint string `json:"compiled_fingerprint,omitempty"`
}

// EncoderSwapRequest is the body of POST /v2/admin/encoder: exactly one of
// Path (a server-local encoder file, for operators colocated with the
// daemon) or EncoderB64 (the encoder file's bytes, base64, for remote
// admin and the coordinator's broadcast) must be set. The new encoder is
// validated before it replaces the old one; a rejected swap leaves the
// previous registration serving. A successful swap re-embeds the stored
// corpus, rebuilds the per-shard ANN indexes and purges the result cache.
type EncoderSwapRequest struct {
	Path       string `json:"path,omitempty"`
	EncoderB64 string `json:"encoder_b64,omitempty"`
}

// EncoderInfo answers GET and POST /v2/admin/encoder: the registered
// trajectory encoder's embedding dimensionality, token-grid resolution
// (0 for coordinate-input encoders) and content fingerprint. The
// coordinator verifies fleet-wide fingerprint agreement after a broadcast
// swap.
type EncoderInfo struct {
	// Dim is the embedding dimensionality.
	Dim int `json:"dim"`
	// Grid is the token-grid resolution (0 for coordinate-input encoders).
	Grid int `json:"grid,omitempty"`
	// Fingerprint is the hex content hash of the serialized encoder; it
	// changes on every swap and is part of the result-cache key.
	Fingerprint string `json:"fingerprint"`
}

// StatsResponse answers GET /v2/stats.
type StatsResponse struct {
	Engine        Stats    `json:"engine"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	Goroutines    int      `json:"goroutines"`
	Measures      []string `json:"measures"`
	// Router is set only by the distributed coordinator (simsubrouter):
	// per-node health/latency and fleet-level hedge/retry/degradation
	// counters. Single-node servers omit it; Engine then aggregates the
	// reachable nodes' counters.
	Router *RouterStats `json:"router,omitempty"`
	// State is the node's serving state ("ready" or "recovering"); empty
	// from servers predating persistence.
	State string `json:"state,omitempty"`
	// Recovery describes the node's boot-time crash recovery. Only set by
	// nodes running with a data directory.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
}

// RouterStats is the coordinator tier's own telemetry: how the fleet is
// behaving as seen from the front door.
type RouterStats struct {
	// Groups is the number of replica groups trajectories are placed on.
	Groups int `json:"groups"`
	// Replication is the number of nodes holding each trajectory.
	Replication int `json:"replication"`
	// Trajectories is the number of trajectories the router has placed.
	Trajectories int `json:"trajectories"`
	// Queries counts top-k specs answered by the router.
	Queries int64 `json:"queries"`
	// Hedges counts hedged replica requests launched after a node's
	// latency-quantile delay expired.
	Hedges int64 `json:"hedges"`
	// Retries counts per-node request retries (backoff on overload or
	// transient network failure).
	Retries int64 `json:"retries"`
	// PartialResults counts answers served with a Partial degradation
	// summary because at least one shard group was unreachable.
	PartialResults int64 `json:"partial_results"`
	// BoundsPropagated counts scatter waves that shipped a running
	// k-th-best bound to remote shards.
	BoundsPropagated int64 `json:"bounds_propagated"`
	// DeadlineRejects counts requests the router rejected before any
	// scatter because their remaining deadline budget was already inside
	// the router's merge reserve.
	DeadlineRejects int64 `json:"deadline_rejects"`
	// Nodes holds one entry per backend node, in configuration order.
	Nodes []NodeStats `json:"nodes"`
}

// NodeStats is the router's view of one backend simsubd node.
type NodeStats struct {
	// Node is the node's base URL.
	Node string `json:"node"`
	// Group is the replica group the node belongs to.
	Group int `json:"group"`
	// Healthy reports whether the node's latest contact succeeded.
	Healthy bool `json:"healthy"`
	// Requests counts requests sent to the node (including hedges).
	Requests int64 `json:"requests"`
	// Failures counts requests that exhausted their retries.
	Failures int64 `json:"failures"`
	// Hedges counts hedge requests this node received.
	Hedges int64 `json:"hedges"`
	// Retries counts retry attempts against this node.
	Retries int64 `json:"retries"`
	// RTTMeanMS / RTTP50MS / RTTP95MS summarize the node's recent
	// round-trip times in milliseconds (0 until a request completes).
	RTTMeanMS float64 `json:"rtt_mean_ms"`
	RTTP50MS  float64 `json:"rtt_p50_ms"`
	RTTP95MS  float64 `json:"rtt_p95_ms"`
	// State is the node's self-reported serving state ("ready",
	// "recovering") or "unreachable" when its stats could not be fetched.
	// The router fails over instead of scatter-gathering against a node
	// still replaying its log.
	State string `json:"state,omitempty"`
	// Breaker is the node's circuit-breaker state as seen by the router:
	// "closed" (healthy), "open" (ejected after consecutive failures — the
	// router skips it until the cooldown expires) or "half-open" (one
	// probe in flight deciding whether to close again).
	Breaker string `json:"breaker,omitempty"`
	// BreakerOpens counts how many times the node's breaker has tripped
	// open.
	BreakerOpens int64 `json:"breaker_opens"`
}

// FailpointInfo is one armed fault-injection site, as listed by
// GET /v2/admin/failpoints.
type FailpointInfo struct {
	// Name is the fault site (e.g. "storage/append", "router/transport").
	Name string `json:"name"`
	// Spec is the armed spec in the failpoint grammar (e.g.
	// "3*sleep(50ms)", "error(disk gone)").
	Spec string `json:"spec"`
	// Hits counts evaluations that triggered the fault so far.
	Hits int `json:"hits"`
}

// FailpointsRequest is the body of POST /v2/admin/failpoints: set Name and
// Spec to arm (or, with spec "off", disarm) one site, or ClearAll to
// disarm everything. The endpoint only exists on servers started with
// fault injection explicitly enabled.
type FailpointsRequest struct {
	Name     string `json:"name,omitempty"`
	Spec     string `json:"spec,omitempty"`
	ClearAll bool   `json:"clear_all,omitempty"`
}

// FailpointsResponse answers GET and POST /v2/admin/failpoints with every
// currently armed site.
type FailpointsResponse struct {
	Failpoints []FailpointInfo `json:"failpoints"`
}

// Searcher answers batched v2 queries. Both the in-process *engine.Engine
// and the remote *client.Client satisfy it, so a program can swap local
// and remote search without code changes.
type Searcher interface {
	Query(ctx context.Context, req Query) (*QueryResponse, error)
}

// StreamSearcher additionally delivers one spec's matches incrementally:
// emit is called, never concurrently, for every provisional match that
// enters the running ranking, then the summary returns the authoritative
// final ranking.
type StreamSearcher interface {
	Searcher
	QueryStream(ctx context.Context, spec QuerySpec, emit func(Match) error) (*StreamSummary, error)
}

// Service is the whole shared /v2 surface: every route a node and a router
// both serve, one method per route. A node (*server.Server), a router
// (*router.Router) and the remote *client.Client all implement it, and the
// one HTTP front end (internal/server) is written over it, so both tiers
// answer each shared route through the same handler.
type Service interface {
	StreamSearcher
	Load(ctx context.Context, ts []Trajectory) (*LoadResponse, error)
	GetTrajectory(ctx context.Context, id int) (*TrajectoryRecord, error)
	SwapPolicy(ctx context.Context, req PolicySwapRequest) (*PolicyInfo, error)
	Policy(ctx context.Context) (*PolicyInfo, error)
	SwapEncoder(ctx context.Context, req EncoderSwapRequest) (*EncoderInfo, error)
	Encoder(ctx context.Context) (*EncoderInfo, error)
	Stats(ctx context.Context) (*StatsResponse, error)
}

// MS is a duration in the wire's fractional milliseconds (microsecond
// resolution).
func MS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// TookMS is the wall-clock time since start in the wire's fractional
// milliseconds.
func TookMS(start time.Time) float64 { return MS(time.Since(start)) }

// msContext tightens ctx by ms milliseconds when positive, clamped so an
// absurd value cannot overflow the duration multiply into an
// already-expired deadline.
func msContext(ctx context.Context, ms int) (context.Context, context.CancelFunc) {
	if ms <= 0 {
		return context.WithCancel(ctx)
	}
	maxMS := int(math.MaxInt64 / int64(time.Millisecond))
	if ms > maxMS {
		ms = maxMS
	}
	return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
}

// QueryBatch is the batch half of every Searcher that answers one spec at
// a time: the specs run concurrently through one, spec 0 on the caller's
// goroutine and every other spec on a goroutine of its own, Results[i]
// answers Specs[i], a failed spec carries its typed error without failing
// the batch, and TimeoutMS (when positive) bounds the whole batch.
func QueryBatch(ctx context.Context, req Query, one func(context.Context, QuerySpec) QueryResult) (*QueryResponse, error) {
	if len(req.Specs) == 0 {
		return nil, Errorf(CodeInvalidArgument, "query batch has no specs")
	}
	ctx, cancel := msContext(ctx, req.TimeoutMS)
	defer cancel()
	start := time.Now()
	results := make([]QueryResult, len(req.Specs))
	var wg sync.WaitGroup
	for i := 1; i < len(req.Specs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = one(ctx, req.Specs[i])
		}(i)
	}
	results[0] = one(ctx, req.Specs[0])
	wg.Wait()
	return &QueryResponse{Results: results, TookMS: TookMS(start)}, nil
}
