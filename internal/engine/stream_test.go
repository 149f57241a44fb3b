package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"simsub/internal/t2vec"
)

// TestTopKStreamMatchesTopK checks the streaming search's final ranking is
// identical to the blocking TopK for the same query, and that every final
// match was provisionally emitted on its way in.
func TestTopKStreamMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	ts := randSet(rng, 60)
	e := New(Config{Shards: 4, Index: ScanAll})
	e.Add(ts)
	q := Query{Q: randTraj(rng, 6), K: 8, Measure: "dtw", Algorithm: "pss"}

	want, _, err := e.TopK(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []Match
	got, cached, err := e.TopKStream(context.Background(), q, func(m Match) error {
		emitted = append(emitted, m)
		return nil
	})
	if err != nil || cached {
		t.Fatalf("stream: cached=%v err=%v", cached, err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream ranking has %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stream rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	// every final answer must have streamed out when it entered the top-k
	inEmitted := map[Match]bool{}
	for _, m := range emitted {
		inEmitted[m] = true
	}
	for _, m := range want {
		if !inEmitted[m] {
			t.Fatalf("final match %+v was never emitted", m)
		}
	}
	if len(emitted) < len(want) {
		t.Fatalf("only %d provisional emissions for a %d-deep final ranking", len(emitted), len(want))
	}
}

// TestTopKStreamCacheHit checks a stream served from the LRU emits exactly
// the final page and reports cached.
func TestTopKStreamCacheHit(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	e := New(Config{Shards: 4, Index: ScanAll, CacheSize: 8})
	e.Add(randSet(rng, 30))
	q := Query{Q: randTraj(rng, 5), K: 6, Measure: "dtw", Algorithm: "pss"}

	if _, _, err := e.TopK(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	var emitted []Match
	got, cached, err := e.TopKStream(context.Background(), q, func(m Match) error {
		emitted = append(emitted, m)
		return nil
	})
	if err != nil || !cached {
		t.Fatalf("cached stream: cached=%v err=%v", cached, err)
	}
	if len(emitted) != len(got) {
		t.Fatalf("cache hit emitted %d matches for a %d-match page", len(emitted), len(got))
	}
	for i := range got {
		if emitted[i] != got[i] {
			t.Fatalf("cache-hit emission %d differs from the page", i)
		}
	}
}

// TestTopKStreamEmitError checks an emit failure aborts the search and
// surfaces unchanged.
func TestTopKStreamEmitError(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	e := New(Config{Shards: 4, Index: ScanAll})
	e.Add(randSet(rng, 40))
	boom := errors.New("client went away")
	_, _, err := e.TopKStream(context.Background(),
		Query{Q: randTraj(rng, 5), K: 5, Measure: "dtw", Algorithm: "pss"},
		func(Match) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want the emit error", err)
	}
	if inflight := e.Stats().InFlight; inflight != 0 {
		t.Fatalf("in-flight = %d after aborted stream", inflight)
	}
}

// TestTopKStreamTrainsCostModelAndSamplers: a streamed query is the same
// query path as a blocking one, so a node that serves only streams still
// trains the scan-cost EWMA (which early deadline_exceeded rejection and
// the budget fallback read) and still feeds the quality and recall samplers.
func TestTopKStreamTrainsCostModelAndSamplers(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	ts := randSet(rng, 60)
	e := New(Config{Shards: 2, Index: ScanAll, QualitySample: 1, RecallSample: 1})
	if _, err := e.SetEncoder(t2vec.NewRandomModel(8, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(ts); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SetPolicy(testPolicy(0, 0, true, false)); err != nil {
		t.Fatal(err)
	}
	stream := func(q Query) {
		t.Helper()
		if _, _, err := e.TopKStream(context.Background(), q, func(Match) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < costMinSamples; i++ {
		stream(Query{Q: randTraj(rng, 5), K: 5, Measure: "dtw", Algorithm: "rls"})
	}
	if _, known := e.cost.estimate("dtw", "rls", e.Len()); !known {
		t.Errorf("cost model untrained after %d streamed scans", costMinSamples)
	}
	if got := e.Stats().QualitySamples; got != costMinSamples {
		t.Errorf("QualitySamples = %d after %d streamed rls queries at sample rate 1", got, costMinSamples)
	}
	stream(Query{
		Q: randTraj(rng, 6), K: 5, Measure: "dtw", Algorithm: "exacts",
		ANN: &ANNParams{Candidates: len(ts) / 2, Probes: 2},
	})
	if got := e.Stats().RecallSamples; got != 1 {
		t.Errorf("RecallSamples = %d after one streamed ann query at sample rate 1", got)
	}
}

// TestTopKStreamBlockedEmitReleasesWorkers: a consumer that stops reading
// must not pin the worker pool. Scanners waiting to hand a match over
// observe the deadline and give their slots back, so other queries run
// while emit is still blocked; the streamed call itself fails with the
// context error once emit returns.
func TestTopKStreamBlockedEmitReleasesWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	e := New(Config{Shards: 4, Workers: 2, Index: ScanAll})
	e.Add(randSet(rng, 400))
	// k = 200: the first 200 matches all enter the running top-k, far more
	// than the hand-off buffers, so scanners are mid-scan at the deadline
	streamed := Query{Q: randTraj(rng, 6), K: 200, Measure: "dtw", Algorithm: "pss"}
	other := Query{Q: randTraj(rng, 6), K: 5, Measure: "dtw", Algorithm: "pss"}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	blocked, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		first := true
		_, _, err := e.TopKStream(ctx, streamed, func(Match) error {
			if first {
				first = false
				close(blocked)
				<-release
			}
			return nil
		})
		done <- err
	}()
	select {
	case <-blocked:
	case err := <-done:
		t.Fatalf("stream ended before its first emit: %v", err)
	}
	<-ctx.Done()

	octx, ocancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer ocancel()
	if _, _, err := e.TopK(octx, other); err != nil {
		t.Fatalf("query beside a blocked stream: %v (worker slots still held past the stream's deadline)", err)
	}
	select {
	case err := <-done:
		t.Fatalf("stream returned (%v) while its emit was still blocked", err)
	default:
	}
	close(release)
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stream err = %v, want the context's deadline error", err)
	}
	if inflight := e.Stats().InFlight; inflight != 0 {
		t.Fatalf("in-flight = %d after the stream returned", inflight)
	}
}
