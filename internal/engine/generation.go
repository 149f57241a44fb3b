package engine

import (
	"slices"

	"simsub/internal/ann"
	"simsub/internal/core"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// This file is the engine's query-visible state: one immutable generation
// behind one atomic pointer (Engine.cur), read-copy-update style. A
// generation holds everything a ranking depends on — the registered
// artifacts, every shard's database view and LSH index, the trajectory and
// point counts — so a query that loads the pointer once answers from
// exactly one store state, however many loads and swaps publish while it
// runs. Writers (Add, AttachStore, SetEncoder, SetPolicy,
// SetPolicyCompiled) serialize on Engine.addMu, build the successor of the
// current generation beside it and publish it with one pointer store.

// shard is one partition of a generation's store: the trajectories with
// global IDs ≡ shard index mod shard count, held by a core.Database view,
// and the LSH index over their embeddings (TrajMeta.Emb) for the
// approximate candidate prefilter, nil while no encoder is registered. Both
// are immutable once built and come from the same metas under the
// generation's encoder.
type shard struct {
	db  *core.Database
	ann *ann.Index
}

// generation is one published store state. Nothing in it is written after
// publication; a writer changes the engine by publishing a successor.
type generation struct {
	// id moves with every publication: it keys the result cache, so a
	// ranking computed under one generation is never served under another.
	id     uint64
	art    *artifacts
	shards []shard
	// n is the trajectory count (global IDs are dense in [0, n)), points
	// the total point count.
	n      int
	points int64
}

// successor returns a copy of g under the next id, with a shard slice of
// its own, for a writer holding addMu to fill in and publish.
func (g *generation) successor() *generation {
	next := *g
	next.id++
	next.shards = slices.Clone(g.shards)
	return &next
}

// traj returns the trajectory with the given global ID.
func (g *generation) traj(id int) (traj.Trajectory, bool) {
	if id < 0 || id >= g.n {
		return traj.Trajectory{}, false
	}
	return g.shards[id%len(g.shards)].db.Traj(id / len(g.shards)), true
}

// grow returns the shard view over (trajs, metas), which must extend s's
// contents (metadata may differ in its embeddings only): the database view
// is grown with core.Database.Append — whatever the index kind — and, with
// an encoder, the LSH index is rebuilt over every stored embedding.
func (s shard) grow(trajs []traj.Trajectory, metas []core.TrajMeta, enc *t2vec.Model) shard {
	next := shard{db: s.db.Append(trajs, metas)}
	if enc != nil {
		vecs := make([][]float64, len(metas))
		for i := range metas {
			vecs[i] = metas[i].Emb
		}
		next.ann = ann.Build(vecs, enc.Dim(), ann.Config{})
	}
	return next
}

// publish makes g the current generation and purges the result cache:
// rankings keyed under an older generation's id are unreachable anyway,
// so purging frees their LRU slots. Callers hold addMu.
func (e *Engine) publish(g *generation) {
	e.cur.Store(g)
	e.cache.purge()
}
