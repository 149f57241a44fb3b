package engine

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"simsub/api"
)

// This file is the engine's overload-resilience layer: adaptive admission
// control in front of the scatter path (a CoDel-style bounded queue with
// measured queue wait and load shedding by query cost class), and a
// per-(measure, algorithm) cost model that predicts whether a query can
// finish inside its remaining deadline budget so hopeless requests are
// rejected EARLY — with a typed deadline_exceeded — instead of holding a
// slot until they time out.

// queryClass is the admission cost class of a query. Expensive classes are
// shed first under overload: an unbounded exact scan holds worker slots
// for orders of magnitude longer than a pruned or learned scan, so
// shedding one exact scan frees as much capacity as shedding many cheap
// ones.
type queryClass int

const (
	classCheap queryClass = iota
	classExpensive
)

// classOf maps an algorithm name to its admission class. The exact
// searches are the expensive class: SizeS enumerates its length window,
// and ExactS enumerates every subtrajectory under t2vec. Under DTW,
// Fréchet, ERP and EDR, ExactS is one O(n·m) free-start pass that
// abandons against the threshold; it keeps the class anyway, because the
// classes are set by name. Everything else (splitting heuristics, learned
// searches) stays cheap.
func classOf(algorithm string) queryClass {
	switch algorithm {
	case "exacts", "sizes":
		return classExpensive
	}
	return classCheap
}

// degradeChain lists the graceful-degradation fallbacks of an algorithm in
// preference order. Only the exact scans degrade, and what the opt-in
// trades is exactness: PSS is the paper's APPROXIMATE splitting search (its
// Figure 3; cmd/experiments -exp fig3 reads approximation ratios of
// 1.04–2.8 here), so a degraded ranking may name worse subtrajectories, or
// other trajectories, than the one asked for — which is why the answer is
// marked Degraded. The learned policy is the last resort when even PSS
// cannot fit the budget. Whether each step is still a step towards cheaper
// is ROADMAP item 1's question, not settled here.
func degradeChain(algorithm string) []string {
	switch algorithm {
	case "exacts", "sizes":
		return []string{"pss", "rls-skip"}
	}
	return nil
}

// ewma is a lock-free exponentially weighted moving average.
type ewma struct {
	bits    atomic.Uint64
	samples atomic.Int64
}

const ewmaAlpha = 0.3

func (e *ewma) observe(v float64) {
	e.samples.Add(1)
	for {
		old := e.bits.Load()
		cur := math.Float64frombits(old)
		next := v
		if old != 0 {
			next = cur + ewmaAlpha*(v-cur)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func (e *ewma) value() (float64, int64) {
	return math.Float64frombits(e.bits.Load()), e.samples.Load()
}

// costModel predicts a query's uncached scan wall time from the observed
// per-trajectory cost of past scans under the same (measure, algorithm)
// pair, so the prediction tracks corpus growth.
type costModel struct {
	mu    sync.Mutex
	perNs map[string]*ewma // measure "/" algorithm -> ns per stored trajectory
}

// costMinSamples is how many observations a pair needs before its
// prediction is trusted: a cold server admits everything.
const costMinSamples = 2

func (c *costModel) tracker(measure, algorithm string) *ewma {
	key := measure + "/" + algorithm
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.perNs == nil {
		c.perNs = map[string]*ewma{}
	}
	t := c.perNs[key]
	if t == nil {
		t = &ewma{}
		c.perNs[key] = t
	}
	return t
}

// observe folds one finished uncached scan over n trajectories into the
// model.
func (c *costModel) observe(measure, algorithm string, n int, wall time.Duration) {
	if n <= 0 || wall <= 0 {
		return
	}
	c.tracker(measure, algorithm).observe(float64(wall) / float64(n))
}

// estimate predicts the scan wall time over n trajectories; known is false
// until the pair has enough observations to trust.
func (c *costModel) estimate(measure, algorithm string, n int) (time.Duration, bool) {
	perNs, samples := c.tracker(measure, algorithm).value()
	if samples < costMinSamples {
		return 0, false
	}
	return time.Duration(perNs * float64(n)), true
}

// admitter is the CoDel-style admission controller: a bounded wait queue
// in front of a fixed number of concurrent-query slots. Every queued
// acquisition measures its queue wait; if the MINIMUM wait over an
// interval stays above the target, the queue has standing (not burst)
// backlog — the CoDel insight — and the admitter flips to shedding, where
// expensive-class queries are rejected immediately with a Retry-After
// hint derived from the observed drain rate. Cheap queries keep queueing
// until the queue itself is full, which rejects everything.
type admitter struct {
	slots      chan struct{}
	queueLimit int64
	target     time.Duration
	interval   time.Duration

	queued   atomic.Int64
	shedding atomic.Bool

	mu          sync.Mutex
	intervalEnd time.Time
	minWait     time.Duration
	sawSample   bool

	waitEWMA    ewma // smoothed queue wait, ns
	serviceEWMA ewma // smoothed per-query slot hold, ns

	shed          atomic.Int64
	shedExpensive atomic.Int64
}

func newAdmitter(slots, queueLimit int, target, interval time.Duration) *admitter {
	return &admitter{
		slots:      make(chan struct{}, slots),
		queueLimit: int64(queueLimit),
		target:     target,
		interval:   interval,
	}
}

// note folds one measured queue wait into the CoDel interval state and
// flips the shedding flag at interval boundaries.
func (a *admitter) note(wait time.Duration) {
	a.waitEWMA.observe(float64(wait))
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.intervalEnd.IsZero() {
		a.intervalEnd = now.Add(a.interval)
	}
	if now.After(a.intervalEnd) {
		// decide on the finished interval: standing backlog iff the best
		// observed wait never dipped under the target
		a.shedding.Store(a.sawSample && a.minWait > a.target)
		a.intervalEnd = now.Add(a.interval)
		a.sawSample = false
	}
	if !a.sawSample || wait < a.minWait {
		a.minWait, a.sawSample = wait, true
	}
}

// retryAfter estimates when a rejected caller should come back: the
// current backlog divided by the observed drain rate, clamped to a sane
// window.
func (a *admitter) retryAfter() time.Duration {
	service, samples := a.serviceEWMA.value()
	queued := a.queued.Load()
	est := 100 * time.Millisecond
	if samples > 0 {
		est = time.Duration(service * float64(queued+1) / float64(cap(a.slots)))
	}
	return min(max(est, 50*time.Millisecond), 5*time.Second)
}

// overloadedErr builds the typed shed rejection with its Retry-After hint.
func (a *admitter) overloadedErr(class queryClass, why string) *api.Error {
	a.shed.Add(1)
	if class == classExpensive {
		a.shedExpensive.Add(1)
	}
	ae := api.Errorf(api.CodeOverloaded, "admission: %s", why)
	ae.RetryAfterMS = int(a.retryAfter().Milliseconds())
	if ae.RetryAfterMS <= 0 {
		ae.RetryAfterMS = 1
	}
	return ae
}

// acquire admits one query of the given class, blocking in the bounded
// queue when every slot is busy. It returns a release func on success and
// a typed rejection (overloaded with Retry-After, or the caller's own
// cancellation) otherwise.
func (a *admitter) acquire(ctx context.Context, class queryClass) (func(), *api.Error) {
	// fast path: a free slot means no queue and no shedding evidence
	select {
	case a.slots <- struct{}{}:
		a.note(0)
		return a.releaseFn(), nil
	default:
	}
	if a.shedding.Load() && class == classExpensive {
		return nil, a.overloadedErr(class, "shedding expensive scans under sustained queueing")
	}
	if a.queued.Load() >= a.queueLimit {
		return nil, a.overloadedErr(class, "admission queue is full")
	}
	a.queued.Add(1)
	start := time.Now()
	select {
	case a.slots <- struct{}{}:
		a.queued.Add(-1)
		a.note(time.Since(start))
		return a.releaseFn(), nil
	case <-ctx.Done():
		a.queued.Add(-1)
		if ctx.Err() == context.Canceled {
			return nil, api.Errorf(api.CodeCanceled, "caller went away while queued for admission")
		}
		// the request's whole budget drained in the queue: that is
		// overload, not a search timeout
		return nil, a.overloadedErr(class, "no query slot within the request deadline")
	}
}

func (a *admitter) releaseFn() func() {
	start := time.Now()
	return func() {
		a.serviceEWMA.observe(float64(time.Since(start)))
		<-a.slots
	}
}

// queueWait returns the smoothed queue wait.
func (a *admitter) queueWait() time.Duration {
	v, _ := a.waitEWMA.value()
	return time.Duration(v)
}

// servable reports whether the query could be answered by the given
// algorithm instead of its own under the artifacts of the query's pinned
// generation:
// resolution must succeed (the learned fallback needs a loaded policy of
// the right kind).
func servable(a *artifacts, q Query, algorithm string) bool {
	q.Algorithm = algorithm
	_, err := resolve(a, q)
	return err == nil
}

// budgetFallback picks the first degradation fallback that is servable and
// whose predicted cost fits the remaining budget (unknown costs are given
// the benefit of the doubt); "" when none qualifies.
func (e *Engine) budgetFallback(g *generation, q Query, remaining time.Duration) string {
	for _, fb := range degradeChain(q.Algorithm) {
		if !servable(g.art, q, fb) {
			continue
		}
		if est, known := e.cost.estimate(q.Measure, fb, g.n); known && est > remaining {
			continue
		}
		return fb
	}
	return ""
}

// degradeTarget is the overload-path fallback: the first servable entry of
// the degradation chain that is not known to cost at least as much as the
// shed query — under DTW, Fréchet, ERP and EDR the free-start ExactS can
// undercut PSS, and a degraded answer must be cheaper, not only
// approximate. A pair whose cost is still unknown keeps the benefit of the
// doubt.
func (e *Engine) degradeTarget(g *generation, q Query) string {
	own, ownKnown := e.cost.estimate(q.Measure, q.Algorithm, g.n)
	for _, fb := range degradeChain(q.Algorithm) {
		if !servable(g.art, q, fb) {
			continue
		}
		if est, known := e.cost.estimate(q.Measure, fb, g.n); known && ownKnown && est >= own {
			continue
		}
		return fb
	}
	return ""
}

// planAdmit is the overload-resilience pre-flight run on every uncached
// query, in order: the deadline-budget check (predicted scan time vs the
// remaining budget minus the merge reserve, rejecting EARLY with
// deadline_exceeded), graceful degradation under the caller's explicit
// opt-in, and admission through the CoDel controller. On success it may
// have rewritten q.Algorithm to a cheaper fallback servable in g, the
// query's pinned generation; it returns the slot release func and the
// degradation marker for the response.
func (e *Engine) planAdmit(ctx context.Context, g *generation, q *Query) (func(), *api.Degraded, *api.Error) {
	var deg *api.Degraded
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl) - e.cfg.MergeReserve
		if remaining <= 0 {
			e.deadlineRejects.Add(1)
			return nil, nil, api.Errorf(api.CodeDeadlineExceeded,
				"remaining deadline budget is inside the %v merge reserve", e.cfg.MergeReserve)
		}
		if est, known := e.cost.estimate(q.Measure, q.Algorithm, g.n); known && est > remaining {
			fb := ""
			if q.AllowDegraded {
				fb = e.budgetFallback(g, *q, remaining)
			}
			if fb == "" {
				e.deadlineRejects.Add(1)
				return nil, nil, api.Errorf(api.CodeDeadlineExceeded,
					"predicted %q scan time %v exceeds the remaining budget %v; retry with a larger deadline, or opt into allow_degraded",
					q.Algorithm, est.Round(time.Millisecond), remaining.Round(time.Millisecond))
			}
			deg = &api.Degraded{Reason: api.DegradedBudget, From: q.Algorithm, To: fb}
			q.Algorithm = fb
		}
	}
	rel, aerr := e.adm.acquire(ctx, classOf(q.Algorithm))
	if aerr != nil && aerr.Code == api.CodeOverloaded && q.AllowDegraded && classOf(q.Algorithm) == classExpensive {
		// shed as an exhaustive scan, but the caller would rather have a
		// cheaper answer than an error: retry once in the cheap class
		if fb := e.degradeTarget(g, *q); fb != "" {
			deg = &api.Degraded{Reason: api.DegradedOverload, From: q.Algorithm, To: fb}
			q.Algorithm = fb
			rel, aerr = e.adm.acquire(ctx, classOf(q.Algorithm))
		}
	}
	if aerr != nil {
		return nil, nil, aerr
	}
	if deg != nil {
		e.degradedQueries.Add(1)
	}
	return rel, deg, nil
}

// Shedding reports whether the admission controller is currently load
// shedding. The server consults it to shed stream loads first: bulk
// ingestion is the most deferrable work in the system.
func (e *Engine) Shedding() bool { return e.adm.shedding.Load() }

// RetryAfterHint estimates when a shed caller should retry, derived from
// the admission queue's observed drain rate.
func (e *Engine) RetryAfterHint() time.Duration { return e.adm.retryAfter() }
