package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"simsub/api"
	"simsub/internal/engine"
	"simsub/internal/traj"
)

// FuzzFrontEnd posts arbitrary bytes to every shared POST route of a small
// in-process node. Whatever arrives, the front end must not panic, every
// non-2xx answer must be the typed error envelope under its code's status,
// and every status must be one that api.Error.HTTPStatus maps a code to.
// Every 200 answer on /v2/query must read back through api's
// query-response codec as encoding/json reads it, and re-encode to the
// same bytes.
func FuzzFrontEnd(f *testing.F) {
	routes := []string{"/v2/query", "/v2/query/stream", "/v2/load", "/v2/admin/policy", "/v2/admin/encoder"}
	statuses := map[int]bool{http.StatusOK: true}
	for _, c := range []api.Code{
		api.CodeInvalidArgument, api.CodeNotFound, api.CodeTimeout, api.CodeDeadlineExceeded,
		api.CodeCanceled, api.CodeOverloaded, api.CodeTooLarge, api.CodeInternal,
	} {
		statuses[(&api.Error{Code: c}).HTTPStatus()] = true
	}
	// the swap routes read server-local paths, and a fuzzed path could
	// name any file on the machine: only these are ever sent
	dir := f.TempDir()
	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("not an artifact"), 0o644); err != nil {
		f.Fatal(err)
	}
	paths := map[string]bool{"": true, dir: true, garbage: true, filepath.Join(dir, "missing"): true}

	rng := rand.New(rand.NewSource(5))
	corpus := []traj.Trajectory{randWalk(rng, 12), randWalk(rng, 9), randWalk(rng, 15)}
	f.Add(uint8(0), []byte(`{"specs":[{"query":{"points":[[0,0],[1,1]]},"k":2,"algorithm":"exacts"}],"timeout_ms":50}`))
	f.Add(uint8(1), []byte(`{"spec":{"query":{"points":[[0,0],[1,1,2]]},"k":1,"offset":1}}`))
	f.Add(uint8(2), []byte(`{"trajectories":[{"points":[[0,0],[1,1,2]]}]}`))
	f.Add(uint8(2), []byte(`{"trajectories":[]}{"trajectories":[]}`))
	f.Add(uint8(3), []byte(`{"path":"`+garbage+`","compile_resolution":4}`))
	f.Add(uint8(4), []byte(`{"encoder_b64":"eA=="}`))
	// names and fields the query surface does not serve
	for _, field := range []string{
		`"algorithm":"spring"`, `"measure":"lcss"`, `"measure":"eds"`, `"measure":"edwp"`,
		`"measure":"cdtw"`, `"lcss_eps":0.1`, `"cdtw_band":0.1`,
	} {
		f.Add(uint8(1), []byte(`{"spec":{"query":{"points":[[0,0],[1,1]]},"k":1,`+field+`}}`))
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		var swap struct{ Path string }
		if strings.HasPrefix(path, "/v2/admin/") && json.Unmarshal(body, &swap) == nil && !paths[swap.Path] {
			t.Skip("swap names a path outside the prepared files")
		}
		eng := engine.New(engine.Config{Shards: 2, Workers: 1})
		if _, err := eng.Add(append([]traj.Trajectory(nil), corpus...)); err != nil {
			t.Fatal(err)
		}
		h := New(eng, Options{MaxTimeout: time.Second, MaxBodyBytes: 1 << 16})
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

		if !statuses[w.Code] {
			t.Fatalf("POST %s answered status %d, which no error code maps to", path, w.Code)
		}
		if path == "/v2/query" && w.Code == http.StatusOK {
			checkQueryAnswer(t, w.Body.Bytes())
		}
		if w.Code/100 == 2 {
			return
		}
		dec := json.NewDecoder(w.Body)
		dec.DisallowUnknownFields()
		var er api.ErrorResponse
		if err := dec.Decode(&er); err != nil {
			t.Fatalf("POST %s answered %d without the typed envelope: %v", path, w.Code, err)
		}
		if er.Err.Code == "" || er.Err.HTTPStatus() != w.Code {
			t.Fatalf("POST %s answered %d with error %+v", path, w.Code, er.Err)
		}
	})
}

// checkQueryAnswer holds a /v2/query answer body to the query-response
// codec: api.ReadQueryResponse reads the value json.Decoder reads, and
// AppendJSON writes the body back byte for byte.
func checkQueryAnswer(t *testing.T, body []byte) {
	t.Helper()
	var want, got api.QueryResponse
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
		t.Fatalf("/v2/query answered 200 with a body encoding/json cannot read: %v\n%s", err, body)
	}
	if err := api.ReadQueryResponse(bytes.NewReader(body), &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("/v2/query answer read as %+v (error %v), encoding/json read %+v", got, err, want)
	}
	again, err := got.AppendJSON(nil)
	if err != nil || string(again)+"\n" != string(body) {
		t.Fatalf("/v2/query answer re-encoded as %s (error %v), want %s", again, err, body)
	}
}
