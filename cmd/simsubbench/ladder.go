package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"simsub/api"
	"simsub/client"
	"simsub/internal/ann"
	"simsub/internal/core"
	"simsub/internal/engine"
	"simsub/internal/index"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// The query ladder replays the same sampled spec at every level of the
// stack a caller can reach from outside, outermost first:
//
//	client.query   client.Client.Query over HTTP to the edge
//	router.query   Router.Query in-process (router_mixed only)
//	server.query   HTTP straight at every node; on one node this IS
//	               client.query
//	engine.query   Engine.Query in-process on every node
//	core.scan      one serial core.Database pruned scan per node, on a
//	               benchmark-built copy of the node's corpus
//
// A level's self time is its span minus its child's, and it is printed only
// where the child does the parent's work and nothing else:
//
//   - client.self: against router.query behind a router. On one node the
//     single HTTP hop is split by a stub instead: the same client against a
//     server that answers the op's real response bytes with no work behind
//     them.
//   - router.self: against the node round trips the router itself reports
//     through Router.Stats. What the router asks of a node (the running
//     bound it ships) is its own business, so its child time is taken from
//     its own account and not from a replay.
//   - server.self: against engine.query of the same spec on the same node.
//   - engine.query has no self time. The engine spreads a scan over shards
//     and workers; core.scan is one serial scan, the scan's whole work, and
//     can exceed the engine's wall time. Rebuilding the engine's fan-out
//     here would copy its internals and go stale with them.

// nodeCopy is a benchmark-built copy of one node's searchable state: the
// whole corpus in one database, as the oracle holds it, and the candidate
// generators built over it through their packages' public constructors.
type nodeCopy struct {
	db   *core.Database
	tree *index.RTree
	ann  *ann.Index // nil without an encoder

	buildIndex time.Duration // index.BulkLoad over the corpus's MBRs
	buildANN   time.Duration // ann.Build over the corpus's embeddings
	embed      time.Duration // Model.Embed over the corpus
}

func copyNode(n *node, enc *t2vec.Model) *nodeCopy {
	ts := make([]traj.Trajectory, n.eng.Len())
	for id := range ts {
		ts[id], _ = n.eng.Traj(id)
	}
	c := &nodeCopy{db: core.NewDatabase(ts, true)}
	entries := make([]index.Entry, len(ts))
	for i := range ts {
		entries[i] = index.Entry{Rect: c.db.Meta(i).MBR, Ref: i}
	}
	t := time.Now()
	c.tree = index.BulkLoad(entries, 32)
	c.buildIndex = time.Since(t)
	if enc == nil {
		return c
	}
	t = time.Now()
	vecs := make([][]float64, len(ts))
	for i, tr := range ts {
		vecs[i] = enc.Embed(tr)
	}
	c.embed = time.Since(t)
	t = time.Now()
	c.ann = ann.Build(vecs, enc.Dim(), ann.Config{})
	c.buildANN = time.Since(t)
	return c
}

// stub answers POST /v2/query with canned bodies in request order: the
// load generator's own cost (client encode and decode, loopback HTTP) with
// no server work behind it.
type stub struct {
	bodies [][]byte
	next   atomic.Int64
}

func (s *stub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	i := int(s.next.Add(1)-1) % len(s.bodies)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(s.bodies[i])
}

// ladderSample picks the sampled positions: evenly spread originals (no
// repeats), more of them than the result cache holds, so that by the time
// a level replays a spec the level before has pushed it out of the LRU.
func (h *harness) ladderSample() []int {
	want := 100
	if h.p.Cache > 0 {
		want = h.p.Cache + 44
	}
	var originals []int
	for i, o := range h.in.ops {
		if o.RepeatOf < 0 {
			originals = append(originals, i)
		}
	}
	if want >= len(originals) {
		return originals
	}
	out := make([]int, want)
	for i := range out {
		out[i] = originals[i*len(originals)/want]
	}
	return out
}

func (h *harness) queryLadder(ctx context.Context, tr *tracer, out *outcome, runLat []time.Duration, orc *oracle) error {
	m := out.metrics
	sample := h.ladderSample()
	n := len(sample)
	out.samples["client.query_ms"] = n
	nodes := h.f.nodes
	routed := h.f.rt != nil

	copies := make([]*nodeCopy, len(nodes))
	var buildIndex, buildANN, embed time.Duration
	for i, nd := range nodes {
		copies[i] = copyNode(nd, h.in.encoder)
		buildIndex, buildANN, embed = buildIndex+copies[i].buildIndex, buildANN+copies[i].buildANN, embed+copies[i].embed
	}
	trajs, _ := h.f.stored()
	m.set("index.build_ms", ms(buildIndex))
	m.set("ann.build_ms", ms(buildANN))
	if h.in.encoder != nil {
		m.set("t2vec.embed_us_per_traj", ms(embed)*1000/float64(trajs))
	}

	request := func(si int) api.Query { return api.Query{Specs: []api.QuerySpec{h.in.ops[sample[si]].Spec}} }

	// Span ids by sampled op (and node), so a child can name its parent.
	clientSpans, routerSpans := make([]int, n), make([]int, n)
	serverSpans, engineSpans := make([][]int, n), make([][]int, n)
	lClient, lRouter, lEngine := make([]time.Duration, n), make([]time.Duration, n), make([]time.Duration, n)
	lServer := lClient // on one node the edge is the node: client.query is server.query
	if routed {
		lServer = make([]time.Duration, n)
	}
	// core.scan runs on the sampled specs without an ann knob (how the engine
	// turns the knob into candidates is its own business); scanned holds
	// their positions in the sample.
	var lCore []time.Duration
	var scanned []int
	responses := make([]*api.QueryResponse, n)
	var reqBytes, respBytes int
	var prune core.PruneStats
	var rttSum float64 // the router's own account of one op's node round trips, ms

	// Level 1: client.query.
	levels := []func(si int) error{func(si int) error {
		req := request(si)
		var err error
		clientSpans[si], lClient[si] = tr.do("client.query", -1, sample[si], func() { responses[si], err = h.f.edge.Query(ctx, req) })
		h.attempted.Add(1)
		if err == nil && len(responses[si].Results) == 1 {
			err = checkShape(req.Specs[0], &responses[si].Results[0], h.trajLen)
		}
		routerSpans[si] = clientSpans[si]
		serverSpans[si] = []int{clientSpans[si]}
		return err
	}}
	if routed {
		// Level 2: router.query, in-process.
		levels = append(levels, func(si int) error {
			var err error
			routerSpans[si], lRouter[si] = tr.do("router.query", clientSpans[si], sample[si], func() { _, err = h.f.rt.Query(ctx, request(si)) })
			return err
		})
		// Level 3: server.query, HTTP straight at every node.
		levels = append(levels, func(si int) error {
			serverSpans[si] = make([]int, len(nodes))
			for ni, nd := range nodes {
				var res *api.QueryResult
				var err error
				id, d := tr.do("server.query", routerSpans[si], sample[si], func() { res, err = queryOne(ctx, nd.c, request(si).Specs[0]) })
				if err == nil && res.Error != nil {
					err = res.Error
				}
				if err != nil {
					return fmt.Errorf("node %d: %w", ni, err)
				}
				serverSpans[si][ni] = id
				lServer[si] += d
			}
			return nil
		})
	}
	// Level 4: engine.query, in-process on every node.
	levels = append(levels, func(si int) error {
		engineSpans[si] = make([]int, len(nodes))
		for ni, nd := range nodes {
			var resp *api.QueryResponse
			var err error
			id, d := tr.do("engine.query", serverSpans[si][ni], sample[si], func() { resp, err = nd.eng.Query(ctx, request(si)) })
			if err == nil && resp.Results[0].Error != nil {
				err = resp.Results[0].Error
			}
			if err != nil {
				return fmt.Errorf("engine %d: %w", ni, err)
			}
			engineSpans[si][ni] = id
			lEngine[si] += d
		}
		return nil
	})
	// Level 5: core.scan, serial, on the copies.
	levels = append(levels, func(si int) error {
		q, aerr := engine.QueryFromSpec(request(si).Specs[0].WithDefaults())
		if aerr != nil {
			return aerr
		}
		if q.ANN != nil {
			return nil
		}
		var total time.Duration
		for ni, nd := range nodes {
			alg, err := nd.eng.Resolve(q)
			if err != nil {
				return err
			}
			var st core.PruneStats
			_, d := tr.do("core.scan", engineSpans[si][ni], sample[si], func() {
				_, err = copies[ni].db.TopKPrunedCtx(ctx, alg, q.Q, q.K, q.Filter, nil, &st)
			})
			if err != nil {
				return err
			}
			prune.Add(st)
			total += d
		}
		lCore, scanned = append(lCore, total), append(scanned, si)
		return nil
	})

	// A spec goes down all its levels before the next spec starts, so the
	// box's drift over the ladder does not land between levels. With the
	// result cache on that would answer every level after the first from
	// the cache, so there the sample goes down one level at a time, a
	// cache-and-a-bit of distinct specs between a spec's replays. Behind a
	// router the sample also goes level by level, so that the router's
	// recent round trips, read when its level ends, are that level's.
	chunk := 1
	if h.p.Cache > 0 || routed {
		chunk = n
	}
	for lo := 0; lo < n; lo += chunk {
		for li, level := range levels {
			for si := lo; si < min(lo+chunk, n); si++ {
				if err := level(si); err != nil {
					return fmt.Errorf("ladder op %d at level %d of %d: %w", sample[si], li+1, len(levels), err)
				}
			}
			if routed && li == 1 {
				rs, err := h.f.rt.Stats(ctx)
				if err != nil {
					return fmt.Errorf("router stats after the router level: %w", err)
				}
				for _, ns := range rs.Router.Nodes {
					rttSum += ns.RTTMeanMS
				}
			}
		}
	}

	// The stub: the load generator's own cost per op.
	bodies := make([][]byte, n)
	var encode time.Duration
	for si := range sample {
		t := time.Now()
		buf, err := json.Marshal(responses[si])
		encode += time.Since(t)
		if err != nil {
			return err
		}
		bodies[si] = buf
		respBytes += len(buf)
	}
	srv, url, err := serve(&stub{bodies: bodies})
	if err != nil {
		return err
	}
	hc := newHTTPClient()
	sc := client.New(url, client.WithHTTPClient(hc))
	lStub := make([]time.Duration, n)
	for pass := 0; pass < 2; pass++ { // the first pass opens the connection
		for si, pos := range sample {
			var err error
			_, lStub[si] = tr.do("client.stub", -1, pos, func() { _, err = sc.Query(ctx, api.Query{Specs: []api.QuerySpec{h.in.ops[pos].Spec}}) })
			if err != nil {
				_ = srv.Close()
				return fmt.Errorf("stub op %d: %w", pos, err)
			}
		}
	}
	_ = srv.Close()
	hc.CloseIdleConnections()

	// Wire codec on the sampled requests and responses: what the server
	// does to a request before the engine sees it, and to its answer after.
	var decode time.Duration
	for _, pos := range sample {
		buf, err := json.Marshal(api.Query{Specs: []api.QuerySpec{h.in.ops[pos].Spec}})
		if err != nil {
			return err
		}
		reqBytes += len(buf)
		t := time.Now()
		var q api.Query
		if err := json.Unmarshal(buf, &q); err != nil {
			return err
		}
		if _, aerr := engine.QueryFromSpec(q.Specs[0]); aerr != nil {
			return aerr
		}
		decode += time.Since(t)
	}
	fn := float64(n)
	m.set("server.request_bytes_per_query", float64(reqBytes)/fn)
	m.set("server.response_bytes_per_query", float64(respBytes)/fn)
	m.set("api.decode_us_per_query", ms(decode)*1000/fn)
	m.set("api.encode_us_per_response", ms(encode)*1000/fn)
	m.set("harness.client_overhead_us", ms(median(lStub))*1000)

	// Self times per op, then means: per op a self time and its child add
	// up to the parent exactly, and means keep that (medians of a two-humped
	// latency mix would not), so the printed ledger adds up.
	diff := func(a, b []time.Duration) []time.Duration {
		out := make([]time.Duration, len(a))
		for i := range a {
			out[i] = a[i] - b[i]
		}
		return out
	}
	mean := func(ds []time.Duration) float64 { return ms(sum(ds)) / float64(max(len(ds), 1)) }
	m.set("client.query_ms", mean(lClient))
	m.set("server.query_ms", mean(lServer))
	m.set("engine.query_ms", mean(lEngine))
	m.set("core.scan_ms", mean(lCore))
	out.samples["core.scan_ms"] = len(lCore)
	if routed {
		// The two nodes are asked one after the other (the second carries the
		// first's k-th best as its bound), so an op's node time is the sum of
		// the router's per-node means.
		m.set("client.self_ms", mean(diff(lClient, lRouter)))
		m.set("router.query_ms", mean(lRouter))
		m.set("router.self_ms", mean(lRouter)-rttSum)
		m.set("server.self_ms", mean(diff(lServer, lEngine)))
		out.info["router.node_rtt_sum_ms"] = metric{rttSum, "ms"}
	} else {
		m.set("client.self_ms", mean(lStub))
		m.set("server.self_ms", mean(diff(diff(lClient, lStub), lEngine)))
	}
	// How far the isolated ladder is from the run it explains: the same ops'
	// mean latency in the untraced replay, where the other client, the
	// cache and the box's drift all play.
	var inRun, scannedClient, scannedEngine []time.Duration
	for _, pos := range sample {
		inRun = append(inRun, runLat[pos])
	}
	for _, si := range scanned {
		scannedClient, scannedEngine = append(scannedClient, lClient[si]), append(scannedEngine, lEngine[si])
	}
	m.set("harness.ladder_vs_run_pct", 100*(mean(lClient)-mean(inRun))/mean(inRun))
	out.info["client.query_median_ms"] = metric{ms(median(lClient)), "ms"}
	// Everything below the engine's public boundary as a share of the client's
	// wall time, and the serial scan against the wall time of the same ops one
	// and four levels up: above 100% means the engine's workers overlapped it.
	out.info["engine.query_share_of_client_pct"] = metric{100 * ratio(mean(lEngine), mean(lClient)), "%"}
	out.info["core.scan_share_of_client_pct"] = metric{100 * ratio(mean(lCore), mean(scannedClient)), "%"}
	out.info["core.scan_share_of_engine_pct"] = metric{100 * ratio(mean(lCore), mean(scannedEngine)), "%"}
	out.info["ladder.candidates_per_scan"] = metric{ratio(float64(prune.Candidates), float64(len(lCore))), "count"}

	h.indexAndANN(ctx, m, sample, responses, copies, orc)
	return nil
}

// indexAndANN prices the candidate generators on the sampled specs: the
// R-tree probe every scan starts with, the filter's selectivity, and for
// the ann specs the LSH probe, the share of the corpus it hands on and the
// recall of the served answer against the oracle's.
func (h *harness) indexAndANN(ctx context.Context, m *metricSet, sample []int, responses []*api.QueryResponse, copies []*nodeCopy, orc *oracle) {
	var probe time.Duration
	var probes, filtered, annOps int
	var selectivity, fraction, recall float64
	var search time.Duration
	total := 0
	for _, c := range copies {
		total += c.db.Len()
	}
	for si, pos := range sample {
		q, aerr := engine.QueryFromSpec(h.in.ops[pos].Spec.WithDefaults())
		if aerr != nil {
			continue
		}
		mbr := q.Q.MBR()
		t := time.Now()
		for _, c := range copies {
			_ = c.tree.Search(mbr, nil)
			probes++
		}
		probe += time.Since(t)
		if q.Filter != nil {
			in := 0
			for _, c := range copies {
				in += len(c.tree.Search(*q.Filter, nil))
			}
			filtered++
			selectivity += float64(in) / float64(total)
		}
		if q.ANN == nil || h.in.encoder == nil {
			continue
		}
		annOps++
		qEmb := h.in.encoder.QueryEmbedding(q.Q)
		got := 0
		t = time.Now()
		for _, c := range copies {
			// the router forwards the knob verbatim: the budget is per node
			got += len(c.ann.Search(qEmb, q.ANN.Candidates, q.ANN.Probes))
		}
		search += time.Since(t)
		fraction += float64(got) / float64(total)
		if exact, _, _, err := orc.exact(ctx, h.in.ops[pos].Spec); err == nil && len(exact) > 0 {
			in := map[int]bool{}
			for _, g := range responses[si].Results[0].Matches {
				in[g.TrajID] = true
			}
			hit := 0
			for _, e := range exact {
				if in[e.TrajIndex] {
					hit++
				}
			}
			recall += float64(hit) / float64(len(exact))
		}
	}
	m.set("index.query_us", ms(probe)*1000/float64(max(probes, 1)))
	m.set("index.filter_selectivity", ratio(selectivity, float64(filtered)))
	m.set("ann.search_us_per_query", ms(search)*1000/float64(max(annOps, 1)))
	m.set("ann.candidate_fraction", ratio(fraction, float64(annOps)))
	m.set("ann.recall_at_k", ratio(recall, float64(annOps)))
}
