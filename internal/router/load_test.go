package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"simsub/api"
	"simsub/client"
	"simsub/internal/dataset"
	"simsub/internal/traj"
)

// TestLoadRoutesAgree loads one seeded Porto corpus three ways — POST
// /v2/load in batches on node A, POST /v2/load/stream on node B, and a
// router's POST /v2/load over two nodes — and demands that a client sees
// the same store through each: the same trajectory and point counts, the
// same bytes for every GET /v2/trajectories/{id}, and the same bytes for
// every ranking of a dozen DTW and Fréchet queries.
func TestLoadRoutesAgree(t *testing.T) {
	ctx := context.Background()
	corpus := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 240, Seed: 36})
	nodes := startFleet(t, 4)
	a, b := nodes[0], nodes[1]
	rt := httptest.NewServer(NewHandler(newTestRouter(t, nodes[2:], nil), HandlerOptions{}))
	t.Cleanup(rt.Close)

	for _, url := range []string{a.srv.URL, rt.URL} {
		c := client.New(url)
		for lo := 0; lo < len(corpus); lo += 64 {
			batch := corpus[lo:min(lo+64, len(corpus))]
			if _, err := c.Load(ctx, toWire(batch)); err != nil {
				t.Fatalf("%s: load of batch at %d: %v", url, lo, err)
			}
		}
	}
	var ndjson bytes.Buffer
	if err := traj.WriteNDJSON(&ndjson, corpus); err != nil {
		t.Fatal(err)
	}
	if _, err := client.New(b.srv.URL).LoadStream(ctx, &ndjson); err != nil {
		t.Fatalf("stream load: %v", err)
	}

	fronts := map[string]string{"node /v2/load": a.srv.URL, "node /v2/load/stream": b.srv.URL, "router /v2/load": rt.URL}
	// each front's view of the store, keyed by what was asked
	views := map[string]map[string]string{}
	for name, url := range fronts {
		view := map[string]string{}
		st, err := client.New(url).Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		view["stats"] = fmt.Sprintf("%d trajectories, %d points", st.Engine.Trajectories, st.Engine.Points)
		for id := range corpus {
			view[fmt.Sprintf("trajectory %d", id)] = string(httpBody(t, http.MethodGet, fmt.Sprintf("%s/v2/trajectories/%d", url, id), ""))
		}
		var specs []api.QuerySpec
		for _, measure := range []string{"dtw", "frechet"} {
			for _, algo := range []string{"exacts", "pss"} {
				for _, qi := range []int{3, 101, 207} {
					pts := corpus[qi].Points
					q := traj.New(pts[len(pts)/4 : len(pts)/4+12]...)
					specs = append(specs, api.QuerySpec{Query: api.FromTraj(q), K: 5, Measure: measure, Algorithm: algo})
				}
			}
		}
		body, err := json.Marshal(api.Query{Specs: specs})
		if err != nil {
			t.Fatal(err)
		}
		var resp api.QueryResponse
		if err := json.Unmarshal(httpBody(t, http.MethodPost, url+"/v2/query", string(body)), &resp); err != nil {
			t.Fatal(err)
		}
		for i, res := range resp.Results {
			if res.Error != nil || len(res.Matches) != specs[i].K {
				t.Fatalf("%s: spec %d answered %d matches, error %v", name, i, len(res.Matches), res.Error)
			}
			ranking, _ := json.Marshal(struct {
				Matches []api.Match
				Total   int
			}{res.Matches, res.Total})
			view[fmt.Sprintf("ranking %d (%s/%s)", i, specs[i].Measure, specs[i].Algorithm)] = string(ranking)
		}
		views[name] = view
	}
	want := views["node /v2/load"]
	if got := want["stats"]; got != fmt.Sprintf("%d trajectories, %d points", len(corpus), dataset.TotalPoints(corpus)) {
		t.Fatalf("node /v2/load: stats say %s", got)
	}
	for name, view := range views {
		if len(view) != len(want) {
			t.Fatalf("%s: %d answers, node /v2/load %d", name, len(view), len(want))
		}
		for key, w := range want {
			if view[key] != w {
				t.Fatalf("%s: %s differs from node /v2/load:\n%s\n%s", name, key, view[key], w)
			}
		}
	}
}

// httpBody sends one request and returns the 200 answer's body.
func httpBody(t *testing.T, method, url, body string) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d, %s (%v)", method, url, resp.StatusCode, out, err)
	}
	return out
}

// TestNullCoordinateRejected holds every route that reads a trajectory to
// one grammar: a null coordinate is invalid_argument on both tiers, not a
// zero. (The reflection decoder read it as 0 on /v2/load and the queries;
// only /v2/load/stream rejected it.)
func TestNullCoordinateRejected(t *testing.T) {
	nodes := startFleet(t, 1)
	if _, err := client.New(nodes[0].srv.URL).Load(context.Background(), []api.Trajectory{{Points: [][]float64{{0, 0}, {1, 1}}}}); err != nil {
		t.Fatal(err)
	}
	rt := httptest.NewServer(NewHandler(newTestRouter(t, startFleet(t, 1), nil), HandlerOptions{}))
	t.Cleanup(rt.Close)
	if _, err := client.New(rt.URL).Load(context.Background(), []api.Trajectory{{Points: [][]float64{{0, 0}, {1, 1}}}}); err != nil {
		t.Fatal(err)
	}
	null := `{"points":[[0,0],[null,1]]}`
	rows := []struct{ path, body string }{
		{"/v2/load", `{"trajectories":[` + null + `]}`},
		{"/v2/query", `{"specs":[{"query":` + null + `,"k":1}]}`},
		{"/v2/query/stream", `{"spec":{"query":` + null + `,"k":1}}`},
	}
	for _, front := range []struct{ name, url string }{{"node", nodes[0].srv.URL}, {"router", rt.URL}} {
		for _, row := range rows {
			resp, err := http.Post(front.url+row.path, "application/json", strings.NewReader(row.body))
			if err != nil {
				t.Fatal(err)
			}
			var er api.ErrorResponse
			derr := json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || derr != nil || er.Err.Code != api.CodeInvalidArgument ||
				!strings.Contains(er.Err.Message, "null coordinate") {
				t.Errorf("%s %s: status %d, error %+v (%v); want 400 invalid_argument naming the null coordinate",
					front.name, row.path, resp.StatusCode, er.Err, derr)
			}
		}
	}
	resp, err := http.Post(nodes[0].srv.URL+"/v2/load/stream", "application/x-ndjson", strings.NewReader(null))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("node /v2/load/stream: status %d, want 400", resp.StatusCode)
	}
}
