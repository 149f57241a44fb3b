package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/engine"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// TestEndToEnd is the acceptance scenario: load 1000 trajectories over
// /v2/load, issue parallel one-spec /v2/query requests under DTW and
// Fréchet, and check every answer is identical to core's Database.TopK on
// the same data.
func TestEndToEnd(t *testing.T) {
	const nTrajs = 1000
	rng := rand.New(rand.NewSource(80))
	data := make([]traj.Trajectory, nTrajs)
	for i := range data {
		data[i] = randWalk(rng, rng.Intn(24)+12)
	}
	db := core.NewDatabase(data, false)

	eng := engine.New(engine.Config{Shards: 8, CacheSize: 64, Index: engine.ScanAll})
	srv := httptest.NewServer(New(eng, Options{}))
	defer srv.Close()

	// bulk-load in a few batches, as a client would
	for lo := 0; lo < nTrajs; lo += 250 {
		resp := postJSON(t, srv.URL+"/v2/load", wireLoad(data[lo:lo+250]...))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("load batch at %d: status %d", lo, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if eng.Len() != nTrajs {
		t.Fatalf("engine holds %d trajectories, want %d", eng.Len(), nTrajs)
	}

	queries := make([]traj.Trajectory, 6)
	for i := range queries {
		queries[i] = randWalk(rng, 6)
	}

	type job struct {
		q       traj.Trajectory
		measure string
	}
	var jobs []job
	for _, measure := range []string{"dtw", "frechet"} {
		for _, q := range queries {
			jobs = append(jobs, job{q: q, measure: measure})
		}
	}
	var wg sync.WaitGroup
	failures := make(chan string, len(jobs))
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			resp := postJSON(t, srv.URL+"/v2/query", api.Query{Specs: []api.QuerySpec{{
				Query: toWire(j.q), K: 5, Measure: j.measure, Algorithm: "pss",
			}}})
			var qr api.QueryResponse
			code := resp.StatusCode
			decodeBody(t, resp, &qr)
			if code != http.StatusOK || len(qr.Results) != 1 || qr.Results[0].Error != nil {
				failures <- "query not answered OK"
				return
			}
			tr := qr.Results[0]

			m, _ := sim.ByName(j.measure)
			alg, _ := core.AlgorithmFor("pss", m)
			want := db.TopK(alg, j.q, 5)
			if len(tr.Matches) != len(want) {
				failures <- "match count differs from Database.TopK"
				return
			}
			for i, g := range tr.Matches {
				w := want[i]
				if g.TrajID != w.TrajIndex || g.Start != w.Result.Interval.I ||
					g.End != w.Result.Interval.J || g.Dist != w.Result.Dist {
					failures <- "ranked answer differs from Database.TopK"
					return
				}
			}
		}(j)
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Fatal(f)
	}
}

// TestClientTimeoutCancelsSearch checks an in-flight top-k is cancelled
// cleanly when the client gives up: the request fails fast with a timeout
// status and the engine's in-flight gauge drains back to zero.
func TestClientTimeoutCancelsSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	// large trajectories + ERP ExactS, whose free-start gate cannot
	// abandon, make the search far slower than the client's patience (the
	// DTW pass answers this store in a few milliseconds)
	data := make([]traj.Trajectory, 64)
	for i := range data {
		data[i] = randWalk(rng, 600)
	}
	eng := engine.New(engine.Config{Shards: 4, Index: engine.ScanAll})
	srv := httptest.NewServer(New(eng, Options{}))
	defer srv.Close()
	eng.Add(data)

	q := toWire(randWalk(rng, 300))

	slow := []api.QuerySpec{{Query: q, K: 3, Measure: "erp", Algorithm: "exacts"}}

	t.Run("server-side timeout_ms", func(t *testing.T) {
		// the batch envelope answers 200; the spec that ran out of time
		// carries the typed timeout in its lane
		resp := postJSON(t, srv.URL+"/v2/query", api.Query{Specs: slow, TimeoutMS: 30})
		var qr api.QueryResponse
		decodeBody(t, resp, &qr)
		if len(qr.Results) != 1 || qr.Results[0].Error == nil || qr.Results[0].Error.Code != api.CodeTimeout {
			t.Fatalf("results %+v, want one spec failed with code timeout", qr.Results)
		}
	})

	t.Run("client disconnect", func(t *testing.T) {
		body, _ := json.Marshal(api.Query{Specs: slow})
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v2/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			t.Fatal("request succeeded despite client timeout")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("unexpected error: %v", err)
		}
	})

	// the abandoned searches must release their worker slots promptly
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if eng.Stats().InFlight == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("in-flight = %d, searches not cancelled", eng.Stats().InFlight)
}
