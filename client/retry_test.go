package client_test

import (
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
	"simsub/client"
	"simsub/internal/engine"
	"simsub/internal/server"
)

// flakyFront wraps a real served engine and rejects the first fail
// requests to the flaky path with a 503 overloaded, the failure mode
// retries exist for. Other paths pass through untouched (but are still
// counted).
type flakyFront struct {
	inner http.Handler
	flaky string
	mu    sync.Mutex
	seen  map[string]int
	fail  int
}

func (f *flakyFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.seen[r.URL.Path]++
	n := f.seen[r.URL.Path]
	f.mu.Unlock()
	if r.URL.Path == f.flaky && n <= f.fail {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(api.ErrorResponse{
			Err: *api.Errorf(api.CodeOverloaded, "shedding load"),
		})
		return
	}
	f.inner.ServeHTTP(w, r)
}

func (f *flakyFront) attempts(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen[path]
}

func newFlakyClient(t *testing.T, flakyPath string, fail int, opts ...client.Option) (*client.Client, *flakyFront) {
	t.Helper()
	eng := engine.New(engine.Config{Shards: 2, Index: engine.ScanAll})
	front := &flakyFront{inner: server.New(eng, server.Options{}), flaky: flakyPath, seen: map[string]int{}, fail: fail}
	srv := httptest.NewServer(front)
	t.Cleanup(srv.Close)
	return client.New(srv.URL, opts...), front
}

func fastRetry(onRetry func(error)) client.Option {
	return client.WithRetry(client.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		OnRetry:     onRetry,
	})
}

// TestClientRetriesOverloadedQuery: two 503s then success — an opted-in
// client must absorb them and return the ranking, observing each retry.
func TestClientRetriesOverloadedQuery(t *testing.T) {
	var retries int
	var mu sync.Mutex
	c, front := newFlakyClient(t, "/v2/query", 2, fastRetry(func(err error) {
		mu.Lock()
		retries++
		mu.Unlock()
		var ae *api.Error
		if !errors.As(err, &ae) || ae.Code != api.CodeOverloaded {
			t.Errorf("OnRetry observed %v, want overloaded", err)
		}
	}))

	rng := rand.New(rand.NewSource(90))
	var ts []api.Trajectory
	for i := 0; i < 40; i++ {
		ts = append(ts, api.FromTraj(randWalk(rng, 10)))
	}
	if _, err := c.Load(context.Background(), ts); err != nil {
		t.Fatalf("load: %v", err)
	}

	resp, err := c.Query(context.Background(), api.Query{Specs: []api.QuerySpec{
		{Query: api.FromTraj(randWalk(rng, 6)), K: 5},
	}})
	if err != nil {
		t.Fatalf("query after two 503s: %v", err)
	}
	if got := len(resp.Results[0].Matches); got != 5 {
		t.Fatalf("query returned %d matches, want 5", got)
	}
	if front.attempts("/v2/query") != 3 {
		t.Fatalf("server saw %d query attempts, want 3", front.attempts("/v2/query"))
	}
	if retries != 2 {
		t.Fatalf("OnRetry observed %d retries, want 2", retries)
	}
}

// TestClientLoadNeverRetried: bulk loads are not idempotent (a duplicate
// delivery double-loads the corpus), so even an opted-in client must
// surface the 503 after a single attempt.
func TestClientLoadNeverRetried(t *testing.T) {
	c, front := newFlakyClient(t, "/v2/load", 1<<30, fastRetry(nil))
	_, err := c.Load(context.Background(), []api.Trajectory{api.FromTraj(randWalk(rand.New(rand.NewSource(91)), 8))})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeOverloaded {
		t.Fatalf("load: got %v, want overloaded", err)
	}
	if n := front.attempts("/v2/load"); n != 1 {
		t.Fatalf("server saw %d load attempts, want exactly 1", n)
	}
}

// TestClientNoRetryOnTypedRejection: deterministic rejections
// (invalid_argument here, via an empty batch) never burn retry budget.
func TestClientNoRetryOnTypedRejection(t *testing.T) {
	c, front := newFlakyClient(t, "/v2/query", 0, fastRetry(nil))
	_, err := c.Query(context.Background(), api.Query{})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeInvalidArgument {
		t.Fatalf("empty batch: got %v, want invalid_argument", err)
	}
	if n := front.attempts("/v2/query"); n != 1 {
		t.Fatalf("server saw %d attempts for a deterministic rejection, want 1", n)
	}
}

// TestClientRetryHonorsDeadline: with the server hard down and seconds of
// backoff configured, an expiring context must end the attempts promptly
// with the last real error, not sleep out the full budget.
func TestClientRetryHonorsDeadline(t *testing.T) {
	c, _ := newFlakyClient(t, "/v2/query", 1<<30, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   2 * time.Second,
		MaxDelay:    2 * time.Second,
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Query(ctx, api.Query{Specs: []api.QuerySpec{
		{Query: api.FromTraj(randWalk(rand.New(rand.NewSource(92)), 5)), K: 1},
	}})
	if err == nil {
		t.Fatal("query against a dead server succeeded")
	}
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeOverloaded {
		t.Fatalf("got %v, want the last overloaded error", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("deadline did not cut the backoff short (took %v)", took)
	}
}

// TestClientNoOptInNoRetry: without WithRetry a transient 503 surfaces on
// the first attempt — retries are strictly opt-in.
func TestClientNoOptInNoRetry(t *testing.T) {
	c, front := newFlakyClient(t, "/v2/query", 1)
	_, err := c.Query(context.Background(), api.Query{Specs: []api.QuerySpec{
		{Query: api.FromTraj(randWalk(rand.New(rand.NewSource(93)), 5)), K: 1},
	}})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeOverloaded {
		t.Fatalf("got %v, want overloaded", err)
	}
	if n := front.attempts("/v2/query"); n != 1 {
		t.Fatalf("server saw %d attempts without opt-in, want 1", n)
	}
}
