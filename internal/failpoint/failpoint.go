// Package failpoint is the fault-injection layer of the chaos suite:
// named fault sites compiled into the storage, engine, server and router
// hot paths that cost one atomic load while disarmed and, when armed,
// inject errors, added latency, dropped connections or partial writes at
// runtime.
//
// A site is a bare string name ("storage/append", "router/transport", ...)
// evaluated at its call point:
//
//	if err := failpoint.Inject("storage/append"); err != nil {
//		return err
//	}
//
// Sites need no registration: arming an unknown name simply waits for a
// call point to evaluate it, and evaluating an unarmed name is a no-op.
// Arming happens three ways: programmatically (Enable, from tests), from
// the SIMSUB_FAILPOINTS environment variable at process boot
// (EnableFromEnv), and over HTTP through the /v2/admin/failpoints endpoint
// of simsubd and simsubrouter (which both require the endpoint to be
// explicitly switched on — a production fleet cannot be chaos-tested by
// accident).
//
// # Spec grammar
//
//	spec     := term | count "*" term | pct "%" term
//	term     := "off" | "error(" msg ")" | "sleep(" duration ")"
//	          | "sleep(" duration ")->error(" msg ")"
//	          | "drop" | "partial(" fraction ")"
//	count    := positive integer — the term fires for the first count
//	            evaluations, then the site disarms itself
//	pct      := integer in [1,100] — the term fires on that percentage of
//	            evaluations (deterministic rotation, not randomness: a
//	            pct of 50 fires every second evaluation)
//
// "error" makes Inject return an *Error carrying the message; "sleep" adds
// the latency then succeeds (honoring the context in InjectCtx, in which
// case the context's error is returned on expiry); "drop" returns ErrDrop,
// which HTTP handlers translate into an aborted connection; "partial"
// applies only to sites that call Partial and truncates the write to the
// given fraction of its bytes.
//
// The environment form is a semicolon-separated list of name=spec pairs:
//
//	SIMSUB_FAILPOINTS='storage/fsync=error(injected);router/transport=3*sleep(50ms)'
package failpoint

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvVar names the environment variable EnableFromEnv reads.
const EnvVar = "SIMSUB_FAILPOINTS"

// Error is an injected failure. Call sites return it unchanged, so a test
// (or errors.As) can always tell an injected fault from an organic one.
type Error struct {
	// Name is the fault site that injected the error.
	Name string
	// Msg is the message from the spec's error(...) term.
	Msg string
}

func (e *Error) Error() string {
	return fmt.Sprintf("failpoint %s: injected: %s", e.Name, e.Msg)
}

// ErrDrop is returned by a site armed with "drop". HTTP layers translate
// it into an abruptly severed connection (http.ErrAbortHandler); non-HTTP
// call sites treat it like any injected error.
var ErrDrop = errors.New("failpoint: injected connection drop")

// kind is the parsed term's action.
type kind int

const (
	kindError kind = iota
	kindSleep
	kindSleepError
	kindDrop
	kindPartial
)

// point is one armed fault site.
type point struct {
	name string
	spec string

	kind     kind
	msg      string
	sleep    time.Duration
	fraction float64

	mu        sync.Mutex
	remaining int // >0: fire this many more times, then disarm; -1: unbounded
	pct       int // 0: always; else fire when (evals*pct)%100 wraps
	evals     int
	hits      int
}

// fire decides whether this evaluation triggers the term, consuming one
// count when counted. It reports (triggered, nowDisarmed).
func (p *point) fire() (bool, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.evals++
	if p.pct > 0 {
		// deterministic rotation: fire pct evaluations out of every 100
		before := (p.evals - 1) * p.pct / 100
		after := p.evals * p.pct / 100
		if after == before {
			return false, false
		}
	}
	if p.remaining == 0 {
		return false, true
	}
	if p.remaining > 0 {
		p.remaining--
	}
	p.hits++
	return true, p.remaining == 0
}

// registry is the global site table. The armed counter gates the fast
// path: while zero, Inject is one atomic load and a return.
var (
	armed    atomic.Int32
	regMu    sync.RWMutex
	registry = map[string]*point{}
)

// parseSpec parses the spec grammar (see the package comment).
func parseSpec(name, spec string) (*point, error) {
	p := &point{name: name, spec: spec, remaining: -1}
	term := strings.TrimSpace(spec)
	if i := strings.Index(term, "*"); i > 0 {
		if n, err := strconv.Atoi(strings.TrimSpace(term[:i])); err == nil {
			if n <= 0 {
				return nil, fmt.Errorf("failpoint %s: count must be positive, got %d", name, n)
			}
			p.remaining = n
			term = strings.TrimSpace(term[i+1:])
		}
	}
	if i := strings.Index(term, "%"); i > 0 {
		if n, err := strconv.Atoi(strings.TrimSpace(term[:i])); err == nil {
			if n < 1 || n > 100 {
				return nil, fmt.Errorf("failpoint %s: percentage must be in [1,100], got %d", name, n)
			}
			p.pct = n
			term = strings.TrimSpace(term[i+1:])
		}
	}
	arg := func(prefix string) (string, bool) {
		if strings.HasPrefix(term, prefix+"(") && strings.HasSuffix(term, ")") {
			return term[len(prefix)+1 : len(term)-1], true
		}
		return "", false
	}
	switch {
	case term == "drop":
		p.kind = kindDrop
	case strings.HasPrefix(term, "sleep(") && strings.HasSuffix(term, ")"):
		inner := term[len("sleep(") : len(term)-1]
		p.kind = kindSleep
		if d, msg, ok := strings.Cut(inner, ")->error("); ok {
			inner, p.msg, p.kind = d, msg, kindSleepError
		}
		d, err := time.ParseDuration(inner)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("failpoint %s: bad sleep duration %q", name, inner)
		}
		p.sleep = d
	default:
		if msg, ok := arg("error"); ok {
			p.kind = kindError
			p.msg = msg
			break
		}
		if fr, ok := arg("partial"); ok {
			f, err := strconv.ParseFloat(fr, 64)
			if err != nil || !(f >= 0 && f < 1) { // NaN fails both
				return nil, fmt.Errorf("failpoint %s: partial fraction must be in [0,1), got %q", name, fr)
			}
			p.kind = kindPartial
			p.fraction = f
			break
		}
		return nil, fmt.Errorf("failpoint %s: unparseable spec %q", name, spec)
	}
	return p, nil
}

// Enable arms (or re-arms) the named site with spec. The specs "" and
// "off" disarm it.
func Enable(name, spec string) error {
	if name == "" {
		return errors.New("failpoint: empty name")
	}
	if s := strings.TrimSpace(spec); s == "" || s == "off" {
		Disable(name)
		return nil
	}
	p, err := parseSpec(name, spec)
	if err != nil {
		return err
	}
	regMu.Lock()
	_, existed := registry[name]
	registry[name] = p
	if !existed {
		armed.Add(1)
	}
	regMu.Unlock()
	return nil
}

// Disable disarms the named site; unknown names are a no-op.
func Disable(name string) {
	regMu.Lock()
	if _, ok := registry[name]; ok {
		delete(registry, name)
		armed.Add(-1)
	}
	regMu.Unlock()
}

// DisableAll disarms every site.
func DisableAll() {
	regMu.Lock()
	armed.Add(-int32(len(registry)))
	registry = map[string]*point{}
	regMu.Unlock()
}

// Info describes one armed site.
type Info struct {
	// Name is the fault site.
	Name string `json:"name"`
	// Spec is the armed spec, as given to Enable.
	Spec string `json:"spec"`
	// Hits counts evaluations that triggered the term so far.
	Hits int `json:"hits"`
}

// List snapshots every armed site, sorted by name.
func List() []Info {
	regMu.RLock()
	out := make([]Info, 0, len(registry))
	for _, p := range registry {
		p.mu.Lock()
		out = append(out, Info{Name: p.name, Spec: p.spec, Hits: p.hits})
		p.mu.Unlock()
	}
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Hits reports how many times the named site has triggered (0 for
// unknown or never-triggered sites).
func Hits(name string) int {
	regMu.RLock()
	p := registry[name]
	regMu.RUnlock()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits
}

// lookup resolves an armed site, disarming exhausted ones.
func lookup(name string) *point {
	regMu.RLock()
	p := registry[name]
	regMu.RUnlock()
	return p
}

// Inject evaluates the named site: nil while disarmed (the fast path is
// one atomic load), otherwise the armed term's effect — an *Error, ErrDrop,
// or an uninterruptible sleep followed by nil or an *Error. Partial-write
// sites return nil here; their effect applies through Partial.
func Inject(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	return InjectCtx(context.Background(), name)
}

// InjectCtx is Inject with context-aware sleeps: an armed sleep returns
// early with ctx.Err() when the context expires first.
func InjectCtx(ctx context.Context, name string) error {
	if armed.Load() == 0 {
		return nil
	}
	p := lookup(name)
	if p == nil {
		return nil
	}
	fired, done := p.fire()
	if done {
		Disable(name)
	}
	if !fired {
		return nil
	}
	switch p.kind {
	case kindError:
		return &Error{Name: name, Msg: p.msg}
	case kindDrop:
		return ErrDrop
	case kindSleep, kindSleepError:
		t := time.NewTimer(p.sleep)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
		if p.kind == kindSleepError {
			return &Error{Name: name, Msg: p.msg}
		}
	}
	return nil
}

// Partial evaluates a partial-write site: it returns how many of n bytes
// the caller should actually write — n while the site is disarmed or armed
// with a non-partial term, a truncated count when a partial term fires.
func Partial(name string, n int) int {
	if armed.Load() == 0 {
		return n
	}
	p := lookup(name)
	if p == nil || p.kind != kindPartial {
		return n
	}
	fired, done := p.fire()
	if done {
		Disable(name)
	}
	if !fired {
		return n
	}
	return int(float64(n) * p.fraction)
}

// EnableFromEnv arms every site listed in SIMSUB_FAILPOINTS
// (semicolon-separated name=spec pairs) and returns the armed names. Call
// it once at process boot; a malformed entry fails loudly rather than
// silently running a chaos experiment with half its faults missing.
func EnableFromEnv() ([]string, error) {
	v := os.Getenv(EnvVar)
	if v == "" {
		return nil, nil
	}
	var names []string
	for _, pair := range strings.Split(v, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, spec, ok := strings.Cut(pair, "=")
		if !ok {
			return names, fmt.Errorf("failpoint: %s entry %q is not name=spec", EnvVar, pair)
		}
		if err := Enable(strings.TrimSpace(name), spec); err != nil {
			return names, err
		}
		names = append(names, strings.TrimSpace(name))
	}
	return names, nil
}
