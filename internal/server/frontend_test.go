package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"simsub/api"
	"simsub/client"
	"simsub/internal/engine"
)

// infSearcher answers every query with a match whose distance JSON cannot
// express.
type infSearcher struct{ *Server }

func (infSearcher) Query(context.Context, api.Query) (*api.QueryResponse, error) {
	return &api.QueryResponse{Results: []api.QueryResult{{
		Matches: []api.Match{{TrajID: 1, Dist: math.Inf(1)}}, Total: 1,
	}}}, nil
}

// TestUnencodableAnswerIsInternal: an answer the codec cannot write is the
// typed internal error under its status, never a 200 with an empty body,
// and client.Query returns it as *api.Error.
func TestUnencodableAnswerIsInternal(t *testing.T) {
	o := Options{}.WithDefaults()
	ts := httptest.NewServer(o.Mux(infSearcher{New(engine.New(engine.Config{Shards: 1, Workers: 1}), o)}, nil))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v2/query", "application/json",
		strings.NewReader(`{"specs":[{"query":{"points":[[0,0],[1,1]]},"k":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("status %d without the typed envelope: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusInternalServerError || er.Err.Code != api.CodeInternal {
		t.Fatalf("answered %d %+v, want 500 internal", resp.StatusCode, er.Err)
	}
	if !strings.Contains(er.Err.Message, "+Inf") {
		t.Fatalf("message %q does not name the value", er.Err.Message)
	}

	_, err = client.New(ts.URL).Query(context.Background(), api.Query{Specs: []api.QuerySpec{{
		Query: api.Trajectory{Points: [][]float64{{0, 0}, {1, 1}}}, K: 1,
	}}})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeInternal {
		t.Fatalf("client.Query error %v, want *api.Error with code internal", err)
	}
}
