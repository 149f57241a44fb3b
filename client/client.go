// Package client is the Go client of a simsubd server. Client speaks the
// versioned wire types of package api and satisfies the same api.Searcher
// and api.StreamSearcher interfaces as the in-process *engine.Engine, so a
// program can swap local and remote search without touching call sites:
//
//	var s api.Searcher = client.New("http://localhost:8080")
//	// ... or, in-process, without a server:
//	var s api.Searcher = simsub.NewEngine(simsub.EngineConfig{})
//
//	resp, err := s.Query(ctx, api.Query{Specs: []api.QuerySpec{{
//		Query: api.Trajectory{Points: [][]float64{{2, 0}, {3, 1}}},
//		K:     5,
//	}}})
//
// Server-side failures come back as typed *api.Error values, so callers
// branch on machine-readable codes (errors.As + Code), never on message
// text or raw HTTP statuses.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"time"

	"simsub/api"
)

var _ api.Service = (*Client)(nil)

// Client is an HTTP client of one simsubd server. It is safe for
// concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	retry *RetryPolicy
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation). The default is a package-level client
// shared by every Client built without this option: http.DefaultTransport's
// settings with 16 idle connections kept per host instead of 2 — a router
// scattering to a node, or a caller with a few goroutines on one Client,
// otherwise redials on most requests — and a 90 s idle timeout. It sets no
// response timeout: streaming responses require a client without a forced
// response timeout shorter than the search.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// defaultHTTPClient is New's client; see WithHTTPClient.
var defaultHTTPClient = func() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	t.IdleConnTimeout = 90 * time.Second
	return &http.Client{Transport: t}
}()

// RetryPolicy configures opt-in request retries (WithRetry): exponential
// backoff with full jitter, capped at MaxDelay. Zero fields take the
// documented defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, the first included
	// (default 3).
	MaxAttempts int
	// BaseDelay is the backoff cap before the first retry (default 50ms);
	// it doubles per attempt up to MaxDelay, and the actual sleep is
	// uniform in (0, cap] (full jitter), so synchronized clients spread
	// out instead of retrying in lockstep.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// OnRetry, when non-nil, observes every retry with the error that
	// caused it (the router counts fleet-wide retries through it). It may
	// be called from any goroutine using the client.
	OnRetry func(err error)
}

func (p RetryPolicy) fill() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// backoff returns the sleep before retry attempt a (1-based): full jitter
// over BaseDelay·2^(a-1), capped at MaxDelay.
func (p RetryPolicy) backoff(a int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < a && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return time.Duration(rand.Int63n(int64(d))) + 1
}

// WithRetry enables retries for idempotent requests (queries, reads, policy
// swaps — never bulk loads, which are not idempotent) on 503 overloaded
// responses and transient network errors. A 503 carrying the server's
// Retry-After hint (api.Error.RetryAfterMS, derived from the observed
// queue drain rate) overrides the exponential schedule: the client sleeps
// the hinted duration plus jitter instead of its own guess. Backoff honors
// the request context: an expired deadline ends the attempts immediately
// with the last error, and a hinted wait that would outlive the deadline
// is not begun. Streaming queries retry only until the first byte of the
// response arrives; a stream severed mid-flight is returned as its error.
func WithRetry(p RetryPolicy) Option {
	filled := p.fill()
	return func(c *Client) { c.retry = &filled }
}

// retryable reports whether the failure is worth retrying: the server
// shedding load (503 overloaded) or a transport-level failure that was not
// the caller's own context expiring. Typed server rejections
// (invalid_argument, not_found, ...) are deterministic and never retried.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae.Code == api.CodeOverloaded
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// withRetries runs fn up to the policy's attempt budget (exactly once when
// retries are off or the call is not idempotent), backing off between
// attempts and aborting as soon as ctx expires.
func (c *Client) withRetries(ctx context.Context, idempotent bool, fn func() error) error {
	attempts := 1
	if idempotent && c.retry != nil {
		attempts = c.retry.MaxAttempts
	}
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if c.retry.OnRetry != nil {
				c.retry.OnRetry(err)
			}
			d := c.retry.backoff(a)
			var ae *api.Error
			if errors.As(err, &ae) && ae.RetryAfterMS > 0 {
				// the server's drain-rate hint beats the exponential guess;
				// keep jitter (up to +25%) so hinted clients still spread out
				hint := time.Duration(ae.RetryAfterMS) * time.Millisecond
				d = hint + time.Duration(rand.Int63n(int64(hint)/4+1))
			}
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
				return err // the wait would outlive the caller's deadline
			}
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return err
			}
		}
		err = fn()
		if err == nil || !retryable(err) {
			return err
		}
	}
	return err
}

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: defaultHTTPClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// errorFrom turns a non-2xx response into a typed error: the server's
// error envelope when it parses, a generic internal error otherwise.
func errorFrom(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var er api.ErrorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.Err.Code != "" {
		return &er.Err
	}
	return api.Errorf(api.CodeInternal, "http %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

// roundTrip POSTs (or GETs, with a nil in) the path and decodes a 2xx
// JSON body into out, retrying idempotent requests per the retry policy.
func (c *Client) roundTrip(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	return c.withRetries(ctx, idempotent, func() error {
		resp, err := c.send(ctx, method, path, in)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return errorFrom(resp)
		}
		if out == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decoding %s response: %w", path, err)
		}
		return nil
	})
}

// call is roundTrip for a request whose JSON answer decodes into a T.
func call[T any](ctx context.Context, c *Client, method, path string, in any, idempotent bool) (*T, error) {
	var out T
	if err := c.roundTrip(ctx, method, path, in, &out, idempotent); err != nil {
		return nil, err
	}
	return &out, nil
}

func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("client: encoding %s request: %w", path, err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.hc.Do(req)
}

// Load bulk-loads trajectories and returns their server-assigned global
// IDs in input order.
func (c *Client) Load(ctx context.Context, ts []api.Trajectory) (*api.LoadResponse, error) {
	return call[api.LoadResponse](ctx, c, http.MethodPost, "/v2/load", api.LoadRequest{Trajectories: ts}, false)
}

// LoadStream streams an NDJSON corpus (one {"points":[[x,y,t],...]}
// object per line, as written by internal/traj.WriteNDJSON or cmd/datagen
// -format ndjson) to POST /v2/load/stream. The body is forwarded without
// buffering, so a 100k–1M trajectory corpus loads through constant client
// memory. Bulk loads are not idempotent and are never retried; a
// mid-stream server error may leave earlier batches committed (the typed
// error's message carries the committed count).
func (c *Client) LoadStream(ctx context.Context, corpus io.Reader) (*api.BulkLoadResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v2/load/stream", corpus)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, errorFrom(resp)
	}
	var out api.BulkLoadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decoding /v2/load/stream response: %w", err)
	}
	return &out, nil
}

// Query implements api.Searcher over POST /v2/query: the batch's specs are
// answered concurrently by the server, Results[i] answering Specs[i], with
// per-spec failures inside their result.
func (c *Client) Query(ctx context.Context, req api.Query) (*api.QueryResponse, error) {
	return call[api.QueryResponse](ctx, c, http.MethodPost, "/v2/query", req, true)
}

// QueryStream implements api.StreamSearcher over POST /v2/query/stream:
// emit receives each provisional match as its NDJSON record arrives —
// while the server-side scan is still running — and the returned summary
// carries the authoritative final ranking. An emit error aborts the stream
// and is returned unchanged. When ctx carries a deadline it is also
// forwarded (slightly shaved) as the search's server-side timeout_ms, so
// expiry normally surfaces as the typed trailing timeout record rather
// than a severed connection.
func (c *Client) QueryStream(ctx context.Context, spec api.QuerySpec, emit func(api.Match) error) (*api.StreamSummary, error) {
	req := api.StreamQuery{Spec: spec}
	if dl, ok := ctx.Deadline(); ok {
		// the shave lets the server's typed error record beat the local
		// context cutting the connection
		if ms := int(time.Until(dl).Milliseconds()) - 50; ms > 0 {
			req.TimeoutMS = ms
		}
	}
	// retries cover only the connection attempt and the status line: once a
	// 2xx arrived the stream may have delivered provisional records, and
	// re-issuing the search could emit them twice
	var resp *http.Response
	err := c.withRetries(ctx, true, func() error {
		r, rerr := c.send(ctx, http.MethodPost, "/v2/query/stream", req)
		if rerr != nil {
			return rerr
		}
		if r.StatusCode/100 != 2 {
			rerr = errorFrom(r)
			r.Body.Close()
			return rerr
		}
		resp = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20) // the summary line carries the full ranking
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev api.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("client: decoding stream record: %w", err)
		}
		switch {
		case ev.Match != nil:
			if err := emit(*ev.Match); err != nil {
				return nil, err
			}
		case ev.Error != nil:
			return nil, ev.Error
		case ev.Summary != nil:
			return ev.Summary, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, api.Errorf(api.CodeInternal, "stream ended without a summary record")
}

// GetTrajectory fetches a stored trajectory by its global ID; an
// unassigned ID returns a typed not_found error.
func (c *Client) GetTrajectory(ctx context.Context, id int) (*api.TrajectoryRecord, error) {
	return call[api.TrajectoryRecord](ctx, c, http.MethodGet, fmt.Sprintf("/v2/trajectories/%d", id), nil, true)
}

// SwapPolicy registers a new DQN splitting policy on the server (POST
// /v2/admin/policy), enabling — or hot-swapping — the learned "rls" /
// "rls-skip" algorithms. The request names a server-local file path or
// carries the policy bytes inline (base64); the returned info carries the
// new policy's name, MDP shape and content fingerprint. Invalid policies
// are rejected with a typed invalid_argument error and leave the previous
// registration serving.
func (c *Client) SwapPolicy(ctx context.Context, req api.PolicySwapRequest) (*api.PolicyInfo, error) {
	return call[api.PolicyInfo](ctx, c, http.MethodPost, "/v2/admin/policy", req, true)
}

// Policy fetches the registered policy's description (GET
// /v2/admin/policy); a server with no policy loaded returns a typed
// not_found error.
func (c *Client) Policy(ctx context.Context) (*api.PolicyInfo, error) {
	return call[api.PolicyInfo](ctx, c, http.MethodGet, "/v2/admin/policy", nil, true)
}

// SwapEncoder registers a new t2vec trajectory encoder on the server
// (POST /v2/admin/encoder), enabling — or hot-swapping — the "ann"
// prefilter and the "embed" ranking. The request names a server-local file
// path or carries the encoder bytes inline (base64); the returned info
// carries the new encoder's dimension, token grid and content fingerprint.
// Invalid encoders are rejected with a typed invalid_argument error and
// leave the previous registration serving.
func (c *Client) SwapEncoder(ctx context.Context, req api.EncoderSwapRequest) (*api.EncoderInfo, error) {
	return call[api.EncoderInfo](ctx, c, http.MethodPost, "/v2/admin/encoder", req, true)
}

// Encoder fetches the registered encoder's description (GET
// /v2/admin/encoder); a server with no encoder loaded returns a typed
// not_found error.
func (c *Client) Encoder(ctx context.Context) (*api.EncoderInfo, error) {
	return call[api.EncoderInfo](ctx, c, http.MethodGet, "/v2/admin/encoder", nil, true)
}

// Stats fetches the engine and server counters.
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	return call[api.StatsResponse](ctx, c, http.MethodGet, "/v2/stats", nil, true)
}

// Health probes the liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.roundTrip(ctx, http.MethodGet, "/healthz", nil, nil, true)
}
