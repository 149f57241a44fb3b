package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"simsub/api"
)

// --- admitter unit tests ---

func TestAdmitterFastPath(t *testing.T) {
	a := newAdmitter(2, 8, 5*time.Millisecond, 100*time.Millisecond)
	rel, aerr := a.acquire(context.Background(), classCheap)
	if aerr != nil {
		t.Fatalf("acquire: %v", aerr)
	}
	rel()
	if a.shed.Load() != 0 {
		t.Fatal("fast-path acquire counted as shed")
	}
}

func TestAdmitterQueueFullRejectsAllClasses(t *testing.T) {
	a := newAdmitter(1, 0, 5*time.Millisecond, 100*time.Millisecond)
	rel, aerr := a.acquire(context.Background(), classCheap)
	if aerr != nil {
		t.Fatalf("first acquire: %v", aerr)
	}
	defer rel()
	// slot busy, queue limit 0: every class is rejected immediately
	for _, class := range []queryClass{classCheap, classExpensive} {
		_, aerr := a.acquire(context.Background(), class)
		if aerr == nil || aerr.Code != api.CodeOverloaded {
			t.Fatalf("class %d: got %v, want overloaded", class, aerr)
		}
		if aerr.RetryAfterMS <= 0 {
			t.Fatalf("overloaded rejection carries no Retry-After hint: %+v", aerr)
		}
	}
	if a.shed.Load() != 2 || a.shedExpensive.Load() != 1 {
		t.Fatalf("shed=%d shedExpensive=%d, want 2/1", a.shed.Load(), a.shedExpensive.Load())
	}
}

func TestAdmitterCoDelFlipsShedding(t *testing.T) {
	a := newAdmitter(1, 8, time.Millisecond, 10*time.Millisecond)
	a.note(20 * time.Millisecond) // opens the interval
	time.Sleep(15 * time.Millisecond)
	a.note(20 * time.Millisecond) // closes it: min wait 20ms > 1ms target
	if !a.shedding.Load() {
		t.Fatal("standing queue wait above target did not flip shedding")
	}
	a.note(0) // a zero wait in the new interval...
	time.Sleep(15 * time.Millisecond)
	a.note(0) // ...clears shedding at the next boundary
	if a.shedding.Load() {
		t.Fatal("shedding did not clear after waits dropped to zero")
	}
}

func TestAdmitterSheddingRejectsExpensiveKeepsCheap(t *testing.T) {
	a := newAdmitter(1, 8, 5*time.Millisecond, 100*time.Millisecond)
	rel, aerr := a.acquire(context.Background(), classCheap)
	if aerr != nil {
		t.Fatalf("first acquire: %v", aerr)
	}
	a.shedding.Store(true)

	if _, aerr := a.acquire(context.Background(), classExpensive); aerr == nil || aerr.Code != api.CodeOverloaded {
		t.Fatalf("expensive under shedding: got %v, want overloaded", aerr)
	}

	// a cheap query queues instead and is admitted once the slot frees
	done := make(chan *api.Error, 1)
	go func() {
		rel2, aerr := a.acquire(context.Background(), classCheap)
		if aerr == nil {
			rel2()
		}
		done <- aerr
	}()
	time.Sleep(10 * time.Millisecond)
	rel()
	if aerr := <-done; aerr != nil {
		t.Fatalf("cheap under shedding: %v, want queued admission", aerr)
	}
}

// --- cost model ---

func TestCostModelNeedsSamples(t *testing.T) {
	var c costModel
	if _, known := c.estimate("dtw", "exacts", 100); known {
		t.Fatal("cold model claimed a known estimate")
	}
	c.observe("dtw", "exacts", 100, time.Millisecond)
	if _, known := c.estimate("dtw", "exacts", 100); known {
		t.Fatal("one sample should not be trusted")
	}
	c.observe("dtw", "exacts", 100, time.Millisecond)
	est, known := c.estimate("dtw", "exacts", 200)
	if !known {
		t.Fatal("two samples should be trusted")
	}
	// 1ms per 100 trajectories -> ~2ms per 200
	if est < time.Millisecond || est > 4*time.Millisecond {
		t.Fatalf("estimate = %v, want ~2ms", est)
	}
}

// --- engine-level deadline budget and degradation ---

func seededEngine(t *testing.T) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	e := New(Config{Shards: 2, CacheSize: 0})
	if _, err := e.Add(randSet(rng, 30)); err != nil {
		t.Fatal(err)
	}
	return e
}

// forceCost plants a per-trajectory cost so estimates become "known"
// without running real scans.
func forceCost(e *Engine, measure, algorithm string, perTraj time.Duration) {
	e.cost.observe(measure, algorithm, 1, perTraj)
	e.cost.observe(measure, algorithm, 1, perTraj)
}

func TestDeadlineBudgetRejectsEarly(t *testing.T) {
	e := seededEngine(t)
	// pretend exacts costs 1s per trajectory: no budget fits 30s of work
	forceCost(e, "dtw", "exacts", time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, _, err := e.TopK(ctx, Query{Q: randTraj(rand.New(rand.NewSource(1)), 5), K: 3, Measure: "dtw", Algorithm: "exacts"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeDeadlineExceeded {
		t.Fatalf("got %v, want typed deadline_exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("rejection was not early: the query burned its budget")
	}
	if got := e.Stats().DeadlineRejects; got != 1 {
		t.Fatalf("DeadlineRejects = %d, want 1", got)
	}
}

func TestBudgetDegradesWithOptIn(t *testing.T) {
	e := seededEngine(t)
	forceCost(e, "dtw", "exacts", time.Second) // exacts cannot fit
	forceCost(e, "dtw", "pss", time.Nanosecond)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	q := Query{Q: randTraj(rand.New(rand.NewSource(2)), 5), K: 3, Measure: "dtw", Algorithm: "exacts", AllowDegraded: true}
	full, _, _, deg, err := e.topK(ctx, q, nil)
	if err != nil {
		t.Fatalf("topK: %v", err)
	}
	if deg == nil || deg.Reason != api.DegradedBudget || deg.From != "exacts" || deg.To != "pss" {
		t.Fatalf("Degraded = %+v, want budget exacts->pss", deg)
	}
	if len(full) == 0 {
		t.Fatal("degraded query answered no matches")
	}
	if got := e.Stats().DegradedQueries; got != 1 {
		t.Fatalf("DegradedQueries = %d, want 1", got)
	}
}

func TestNeverDegradedWithoutOptIn(t *testing.T) {
	e := seededEngine(t)
	forceCost(e, "dtw", "exacts", time.Second)
	forceCost(e, "dtw", "pss", time.Nanosecond)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	q := Query{Q: randTraj(rand.New(rand.NewSource(2)), 5), K: 3, Measure: "dtw", Algorithm: "exacts"}
	_, _, _, deg, err := e.topK(ctx, q, nil)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeDeadlineExceeded {
		t.Fatalf("without opt-in: got %v, want deadline_exceeded (never a silent fallback)", err)
	}
	if deg != nil {
		t.Fatalf("degraded without opt-in: %+v", deg)
	}
}

func TestOverloadDegradesExpensiveWithOptIn(t *testing.T) {
	e := New(Config{Shards: 2, CacheSize: 0, QuerySlots: 1})
	rng := rand.New(rand.NewSource(8))
	if _, err := e.Add(randSet(rng, 20)); err != nil {
		t.Fatal(err)
	}
	// hold the only slot and force the shedding state
	rel, aerr := e.adm.acquire(context.Background(), classCheap)
	if aerr != nil {
		t.Fatalf("holding slot: %v", aerr)
	}
	e.adm.shedding.Store(true)
	go func() {
		time.Sleep(30 * time.Millisecond)
		rel() // the degraded (cheap-class) retry drains from the queue
	}()

	spec := api.QuerySpec{Query: api.FromTraj(randTraj(rng, 5)), K: 3, Measure: "dtw", Algorithm: "exacts", AllowDegraded: true}
	res := e.QueryOne(context.Background(), spec)
	if res.Error != nil {
		t.Fatalf("QueryOne: %v", res.Error)
	}
	if res.Degraded == nil || res.Degraded.Reason != api.DegradedOverload || res.Degraded.To != "pss" {
		t.Fatalf("Degraded = %+v, want overload ->pss", res.Degraded)
	}

	// without the opt-in the same overload is a typed rejection
	e.adm.shedding.Store(true)
	rel2, aerr := e.adm.acquire(context.Background(), classCheap)
	if aerr != nil {
		t.Fatalf("re-holding slot: %v", aerr)
	}
	defer rel2()
	spec.AllowDegraded = false
	res = e.QueryOne(context.Background(), spec)
	if res.Error == nil || res.Error.Code != api.CodeOverloaded {
		t.Fatalf("without opt-in under shedding: got %+v, want overloaded", res.Error)
	}
	if res.Error.RetryAfterMS <= 0 {
		t.Fatalf("overloaded rejection carries no Retry-After hint: %+v", res.Error)
	}
}

// TestOverloadNeverDegradesToCostlier pins the overload fallback to a
// cheaper plan: when the cost model knows PSS costs more than the shed
// ExactS scan (as it does under DTW/Fréchet), a shed opt-in query is not
// moved onto PSS; with no other fallback it is rejected as overloaded.
func TestOverloadNeverDegradesToCostlier(t *testing.T) {
	e := New(Config{Shards: 2, CacheSize: 0, QuerySlots: 1})
	rng := rand.New(rand.NewSource(8))
	if _, err := e.Add(randSet(rng, 20)); err != nil {
		t.Fatal(err)
	}
	forceCost(e, "dtw", "exacts", time.Microsecond)
	forceCost(e, "dtw", "pss", 2*time.Microsecond)
	rel, aerr := e.adm.acquire(context.Background(), classCheap)
	if aerr != nil {
		t.Fatalf("holding slot: %v", aerr)
	}
	e.adm.shedding.Store(true)
	go func() {
		time.Sleep(30 * time.Millisecond)
		rel() // a cheap-class retry would drain from the queue
	}()
	spec := api.QuerySpec{Query: api.FromTraj(randTraj(rng, 5)), K: 3, Measure: "dtw", Algorithm: "exacts", AllowDegraded: true}
	res := e.QueryOne(context.Background(), spec)
	if res.Degraded != nil {
		t.Fatalf("Degraded = %+v: a shed exacts query moved onto a costlier plan", res.Degraded)
	}
	if res.Error == nil || res.Error.Code != api.CodeOverloaded {
		t.Fatalf("got %+v, want overloaded", res.Error)
	}
	if got := e.Stats().DegradedQueries; got != 0 {
		t.Fatalf("DegradedQueries = %d, want 0", got)
	}
}
