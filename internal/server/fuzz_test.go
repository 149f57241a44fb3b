package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
