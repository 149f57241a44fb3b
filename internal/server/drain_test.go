package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"simsub/api"
	"simsub/internal/engine"
	"simsub/internal/failpoint"
)

// TestDrainWaitsForInFlightLoad: Drain stops admitting new bulk loads
// immediately but blocks until the in-flight streaming load commits — the
// ordering that keeps the final shutdown snapshot from racing a batched
// commit.
func TestDrainWaitsForInFlightLoad(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 2})
	h := New(eng, Options{})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	// an in-flight streaming load whose body we control via a pipe
	pr, pw := io.Pipe()
	loadDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v2/load/stream", "application/x-ndjson", pr)
		if err == nil {
			resp.Body.Close()
		}
		loadDone <- err
	}()
	if _, err := pw.Write([]byte(`{"points":[[0,0,0],[1,1,1]]}` + "\n")); err != nil {
		t.Fatal(err)
	}
	waitActive := time.Now().Add(5 * time.Second)
	for {
		h.loadMu.Lock()
		active := h.loadActive
		h.loadMu.Unlock()
		if active == 1 {
			break
		}
		if time.Now().After(waitActive) {
			t.Fatal("streaming load never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- h.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a load still in flight", err)
	case <-time.After(30 * time.Millisecond):
	}

	// a new load during the drain is rejected with a typed 503 + hint
	resp, err := http.Post(srv.URL+"/v2/load/stream", "application/x-ndjson",
		strings.NewReader(`{"points":[[0,0,0],[1,1,1]]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("load during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 during drain carries no Retry-After header")
	}
	var envelope struct {
		Error *api.Error `json:"error"`
	}
	decodeBody(t, resp, &envelope)
	if envelope.Error == nil || envelope.Error.Code != api.CodeOverloaded || envelope.Error.RetryAfterMS <= 0 {
		t.Fatalf("drain rejection envelope %+v", envelope.Error)
	}

	// finishing the in-flight body lets both the load and the drain complete
	pw.Close()
	if err := <-loadDone; err != nil {
		t.Fatalf("in-flight load failed: %v", err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never observed the load finishing")
	}
	if eng.Len() != 1 {
		t.Fatalf("in-flight load committed %d trajectories, want 1", eng.Len())
	}
}

// TestDrainHonorsContext: a drain that cannot finish before its context
// expires returns the context error instead of hanging shutdown forever.
func TestDrainHonorsContext(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 2})
	h := New(eng, Options{})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	pr, pw := io.Pipe()
	defer pw.Close()
	go func() {
		resp, err := http.Post(srv.URL+"/v2/load/stream", "application/x-ndjson", pr)
		if err == nil {
			resp.Body.Close()
		}
	}()
	pw.Write([]byte(`{"points":[[0,0,0],[1,1,1]]}` + "\n"))
	waitActive := time.Now().Add(5 * time.Second)
	for {
		h.loadMu.Lock()
		active := h.loadActive
		h.loadMu.Unlock()
		if active == 1 {
			break
		}
		if time.Now().After(waitActive) {
			t.Fatal("streaming load never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := h.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
}

// TestOverloadedCarriesRetryAfter: every 503 the server writes carries a
// Retry-After header (seconds, ceiling) matching the retry_after_ms field
// in the envelope — here via the recovering gate, which uses WriteErr's
// default hint.
func TestOverloadedCarriesRetryAfter(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 2})
	h := New(eng, Options{})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	h.SetReady(false)

	resp, err := http.Post(srv.URL+"/v2/query", "application/json", strings.NewReader(`{"queries":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (ceiling of the default 1000ms hint)", got)
	}
	var envelope struct {
		Error *api.Error `json:"error"`
	}
	decodeBody(t, resp, &envelope)
	if envelope.Error == nil || envelope.Error.RetryAfterMS != 1000 {
		t.Fatalf("envelope %+v, want retry_after_ms 1000", envelope.Error)
	}
}

// TestFailpointsEndpoint drives the admin surface end to end: disabled by
// default, and with the opt-in GET lists, POST arms/disarms/clears.
func TestFailpointsEndpoint(t *testing.T) {
	failpoint.DisableAll()
	defer failpoint.DisableAll()

	eng := engine.New(engine.Config{Shards: 2})
	plain := httptest.NewServer(New(eng, Options{}))
	t.Cleanup(plain.Close)
	resp, err := http.Get(plain.URL + "/v2/admin/failpoints")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("failpoints endpoint without opt-in: status %d, want 404", resp.StatusCode)
	}

	srv := httptest.NewServer(New(eng, Options{EnableFailpoints: true}))
	t.Cleanup(srv.Close)

	post := func(body string) (*http.Response, api.FailpointsResponse) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v2/admin/failpoints", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out api.FailpointsResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		return resp, out
	}

	resp, out := post(`{"name":"storage/fsync","spec":"2*error(disk gone)"}`)
	if resp.StatusCode != http.StatusOK || len(out.Failpoints) != 1 {
		t.Fatalf("arm: status %d, sites %+v", resp.StatusCode, out.Failpoints)
	}
	if out.Failpoints[0].Name != "storage/fsync" || out.Failpoints[0].Spec != "2*error(disk gone)" {
		t.Fatalf("armed site %+v", out.Failpoints[0])
	}
	if err := failpoint.Inject("storage/fsync"); err == nil {
		t.Fatal("armed site did not fire")
	}

	var listed api.FailpointsResponse
	getResp, err := http.Get(srv.URL + "/v2/admin/failpoints")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(getResp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if len(listed.Failpoints) != 1 || listed.Failpoints[0].Hits != 1 {
		t.Fatalf("GET listed %+v, want 1 site with 1 hit", listed.Failpoints)
	}

	if resp, _ := post(`{"name":"storage/fsync","spec":"not a spec"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d, want 400", resp.StatusCode)
	}
	if resp, out := post(`{"clear_all":true}`); resp.StatusCode != http.StatusOK || len(out.Failpoints) != 0 {
		t.Fatalf("clear_all: status %d, sites %+v", resp.StatusCode, out.Failpoints)
	}
	if err := failpoint.Inject("storage/fsync"); err != nil {
		t.Fatalf("site still armed after clear_all: %v", err)
	}
}
