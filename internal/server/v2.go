package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"strconv"

	"simsub/api"
	"simsub/internal/rl"
	"simsub/internal/t2vec"
)

// This file holds the query handlers every front end mounts — written
// over api.Searcher / api.StreamSearcher, which the engine, the router and
// the client all implement — and the node's own trajectory retrieval and
// serving-artifact endpoints.

// QueryHandler answers POST /v2/query: a batch of specs answered
// concurrently, one QueryResult per spec in order. Spec-level failures are
// reported inside their result; only envelope-level problems (no specs,
// oversized batch, bad JSON) fail the request.
func (o Options) QueryHandler(s api.Searcher) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req api.Query
		if !Decode(w, r, &req) {
			return
		}
		if len(req.Specs) == 0 {
			WriteErr(w, api.Errorf(api.CodeInvalidArgument, "query batch has no specs"))
			return
		}
		if len(req.Specs) > o.MaxBatchSpecs {
			WriteErr(w, api.Errorf(api.CodeInvalidArgument,
				"batch of %d specs exceeds the limit of %d", len(req.Specs), o.MaxBatchSpecs))
			return
		}
		ctx, cancel := o.RequestContext(r, req.TimeoutMS)
		defer cancel()
		req.TimeoutMS = 0 // already applied (and capped) by RequestContext
		resp, err := s.Query(ctx, req)
		WriteResult(w, resp, err)
	}
}

// QueryStreamHandler answers POST /v2/query/stream: one spec whose matches
// are delivered as NDJSON StreamEvent records the moment they enter the
// running top-k, each followed by a flush so clients see answers while the
// scan is still running, terminated by a summary record carrying the
// authoritative final ranking. Failures before the first record use the
// ordinary error envelope and status; failures mid-stream arrive as a
// trailing error record (the status line is long gone by then).
func (o Options) QueryStreamHandler(s api.StreamSearcher) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req api.StreamQuery
		if !Decode(w, r, &req) {
			return
		}
		ctx, cancel := o.RequestContext(r, req.TimeoutMS)
		defer cancel()

		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		wrote := false
		send := func(ev api.StreamEvent) error {
			if err := enc.Encode(ev); err != nil {
				return err
			}
			wrote = true
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		}
		sum, err := s.QueryStream(ctx, req.Spec, func(m api.Match) error {
			return send(api.StreamEvent{Match: &m})
		})
		if err == nil {
			_ = send(api.StreamEvent{Summary: sum})
		} else if ae := api.FromError(err); wrote {
			_ = send(api.StreamEvent{Error: ae})
		} else {
			WriteErr(w, ae)
		}
	}
}

// handleGetTrajectory answers GET /v2/trajectories/{id} with the stored
// trajectory, or a not_found typed error for an unassigned ID.
func (s *Server) handleGetTrajectory(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		WriteErr(w, api.Errorf(api.CodeInvalidArgument, "trajectory id %q is not an integer", r.PathValue("id")))
		return
	}
	t, ok := s.eng.Traj(id)
	if !ok {
		WriteErr(w, api.Errorf(api.CodeNotFound, "no trajectory with id %d", id))
		return
	}
	WriteJSON(w, http.StatusOK, api.TrajectoryRecord{ID: id, Trajectory: api.FromTraj(t)})
}

// loadArtifact resolves a swap request's serving artifact (kind "policy"
// or "encoder") from a server-local file path or inline base64 bytes.
func loadArtifact[T any](kind, path, b64 string, fromFile func(string) (T, error), fromBytes func(io.Reader) (T, error)) (T, *api.Error) {
	if path == "" {
		raw, err := base64.StdEncoding.DecodeString(b64)
		if err != nil {
			var zero T
			return zero, api.Errorf(api.CodeInvalidArgument, "decoding %s_b64: %v", kind, err)
		}
		// the caller supplied these bytes, so the parse error leaks nothing
		v, err := fromBytes(bytes.NewReader(raw))
		if err != nil {
			return v, api.Errorf(api.CodeInvalidArgument, "loading %s: %v", kind, err)
		}
		return v, nil
	}
	v, err := fromFile(path)
	var perr *fs.PathError
	switch {
	case err == nil:
		return v, nil
	case errors.Is(err, fs.ErrNotExist):
		return v, api.Errorf(api.CodeNotFound, "%s file %q does not exist", kind, path)
	case errors.As(err, &perr):
		// an I/O-level failure (permissions, directory, ...), not a bad
		// artifact — don't misdirect the operator toward re-training
		return v, api.Errorf(api.CodeInternal, "reading %s file %q: %v", kind, path, perr.Err)
	default:
		// the parse error can echo fragments of the named file (e.g. a bad
		// header tag), and this endpoint reads server-local paths — keep
		// file contents out of the response
		return v, api.Errorf(api.CodeInvalidArgument, "file %q is not a valid %s", path, kind)
	}
}

// handlePolicySwap answers POST /v2/admin/policy: load a policy from a
// server-local file path or inline base64 bytes, validate it, and register
// it as the serving policy of the "rls" / "rls-skip" algorithms. The swap
// purges the result cache and changes the policy fingerprint, so no cached
// ranking computed under the previous policy can ever be served again. A
// policy that fails validation (corrupted file, inconsistent network
// shape, non-finite weights) is rejected with invalid_argument and the
// previous registration keeps serving.
func (s *Server) handlePolicySwap(w http.ResponseWriter, r *http.Request) {
	var req api.PolicySwapRequest
	if !Decode(w, r, &req) {
		return
	}
	if aerr := req.Validate(); aerr != nil {
		WriteErr(w, aerr)
		return
	}
	p, aerr := loadArtifact("policy", req.Path, req.PolicyB64, rl.LoadFile, rl.Load)
	if aerr != nil {
		WriteErr(w, aerr)
		return
	}
	info, err := s.eng.SetPolicyCompiled(p, req.CompileResolution)
	WriteResult(w, info, err)
}

// handlePolicyGet answers GET /v2/admin/policy with the registered
// policy's description, or a typed not_found when none is loaded.
func (s *Server) handlePolicyGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.eng.Policy()
	if !ok {
		WriteErr(w, api.Errorf(api.CodeNotFound, "no policy loaded"))
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// handleEncoderSwap answers POST /v2/admin/encoder: load a t2vec encoder
// from a server-local file path or inline base64 bytes and register it as
// the corpus embedder. Registration re-embeds every stored trajectory,
// rebuilds the per-shard ANN indexes, purges the result cache and changes
// the encoder fingerprint — so the ann prefilter and the "embed" ranking
// switch atomically and no stale cached ranking survives. An encoder that
// fails to parse is rejected with invalid_argument and the previous
// registration keeps serving.
func (s *Server) handleEncoderSwap(w http.ResponseWriter, r *http.Request) {
	var req api.EncoderSwapRequest
	if !Decode(w, r, &req) {
		return
	}
	if aerr := req.Validate(); aerr != nil {
		WriteErr(w, aerr)
		return
	}
	m, aerr := loadArtifact("encoder", req.Path, req.EncoderB64, t2vec.LoadFile, t2vec.Load)
	if aerr != nil {
		WriteErr(w, aerr)
		return
	}
	info, err := s.eng.SetEncoder(m)
	WriteResult(w, info, err)
}

// handleEncoderGet answers GET /v2/admin/encoder with the registered
// encoder's description, or a typed not_found when none is loaded.
func (s *Server) handleEncoderGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.eng.Encoder()
	if !ok {
		WriteErr(w, api.Errorf(api.CodeNotFound, "no encoder loaded"))
		return
	}
	WriteJSON(w, http.StatusOK, info)
}
