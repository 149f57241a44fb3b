package client_test

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"simsub/api"
	"simsub/client"
	"simsub/internal/engine"
	"simsub/internal/server"
	"simsub/internal/traj"
)

// bigBatch is a load body of about 2 MiB: far more than a server discards
// on its own after answering early (256 KiB), so the answer arrives while
// the client is still encoding.
func bigBatch() []api.Trajectory {
	rng := rand.New(rand.NewSource(11))
	ts := make([]api.Trajectory, 500)
	for i := range ts {
		ts[i] = api.FromTraj(randWalk(rng, 100))
	}
	return ts
}

// settled fails the test unless the goroutine count falls back to base: a
// load must leave nothing running once it has returned and its server and
// connections are gone.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, %d before the load:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// streamedLoad serves h, loads ts through a client of its own transport,
// shuts everything down and checks no goroutine outlived it.
func streamedLoad(t *testing.T, h http.Handler, ts []api.Trajectory) error {
	t.Helper()
	base := runtime.NumGoroutine()
	srv := httptest.NewServer(h)
	tr := &http.Transport{}
	_, err := client.New(srv.URL, client.WithHTTPClient(&http.Client{Transport: tr})).Load(context.Background(), ts)
	srv.Close()
	tr.CloseIdleConnections()
	settled(t, base)
	return err
}

// TestStreamedLoadEarlyAnswers: a server that answers a /v2/load before it
// has read the streamed body — a recovering node's gate, a body over the
// cap — gets its typed error through client.Load, never a transport error,
// and a context cancelled mid-body ends the load with ctx.Err().
func TestStreamedLoadEarlyAnswers(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 2, Index: engine.ScanAll})
	small := bigBatch()[:3]
	for _, c := range []struct {
		name string
		opts server.Options
		ts   []api.Trajectory
		want api.Code
	}{
		{"recovering, small body", server.Options{}, small, api.CodeOverloaded},
		{"recovering, large body", server.Options{}, bigBatch(), api.CodeOverloaded},
		{"over MaxBodyBytes", server.Options{MaxBodyBytes: 64 << 10}, bigBatch(), api.CodeTooLarge},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := server.New(eng, c.opts)
			s.SetReady(c.want != api.CodeOverloaded)
			err := streamedLoad(t, s, c.ts)
			var ae *api.Error
			if !errors.As(err, &ae) || ae.Code != c.want {
				t.Fatalf("load: %v (%T), want typed %s", err, err, c.want)
			}
		})
	}
	if eng.Len() != 0 {
		t.Fatalf("engine holds %d trajectories after refused loads", eng.Len())
	}

	t.Run("context cancelled mid-body", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// the handler reads a little of the body, has the client cancel,
		// and holds the request open until the load has returned
		returned := make(chan struct{})
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if _, err := io.ReadFull(r.Body, make([]byte, 64<<10)); err != nil {
				t.Errorf("reading the body's start: %v", err)
			}
			cancel()
			<-returned
		})
		base := runtime.NumGoroutine()
		srv := httptest.NewServer(h)
		tr := &http.Transport{}
		_, err := client.New(srv.URL, client.WithHTTPClient(&http.Client{Transport: tr})).Load(ctx, bigBatch())
		close(returned)
		srv.Close()
		tr.CloseIdleConnections()
		settled(t, base)
		if err != context.Canceled {
			t.Fatalf("load: %v (%T), want context.Canceled", err, err)
		}
	})
}

// TestNonFiniteLoadSendsNothing: a batch JSON cannot express fails before
// a request is made, as it did when the body was marshalled up front.
func TestNonFiniteLoadSendsNothing(t *testing.T) {
	var requests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
	}))
	defer srv.Close()
	c := client.New(srv.URL)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ts := bigBatch()
		ts[len(ts)-1].Points[7][1] = v
		if _, err := c.Load(context.Background(), ts); !errors.Is(err, traj.ErrNonFiniteCoordinate) {
			t.Fatalf("%v: load error %v, want ErrNonFiniteCoordinate", v, err)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("the server saw %d requests, want none", n)
	}
}
