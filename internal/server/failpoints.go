package server

import (
	"net/http"

	"simsub/api"
	"simsub/internal/failpoint"
)

// FailpointsHandler serves the /v2/admin/failpoints endpoint shared by
// simsubd and simsubrouter: GET lists the armed fault sites, POST arms one
// (name + spec in the failpoint grammar), disarms one (spec "off"), or
// disarms all (clear_all). Both processes expose it only behind an
// explicit opt-in — see Options.EnableFailpoints.
func FailpointsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			WriteJSON(w, http.StatusOK, failpointsResponse())
		case http.MethodPost:
			var req api.FailpointsRequest
			if !Decode(w, r, &req) {
				return
			}
			if req.ClearAll {
				if req.Name != "" || req.Spec != "" {
					WriteErr(w, api.Errorf(api.CodeInvalidArgument, "clear_all excludes name/spec"))
					return
				}
				failpoint.DisableAll()
			} else {
				if req.Name == "" {
					WriteErr(w, api.Errorf(api.CodeInvalidArgument, "failpoint name is required"))
					return
				}
				if err := failpoint.Enable(req.Name, req.Spec); err != nil {
					WriteErr(w, api.Errorf(api.CodeInvalidArgument, "%v", err))
					return
				}
			}
			WriteJSON(w, http.StatusOK, failpointsResponse())
		default:
			WriteErr(w, api.Errorf(api.CodeInvalidArgument, "method %s not allowed on /v2/admin/failpoints", r.Method))
		}
	})
}

// failpointsResponse snapshots the armed sites in wire form.
func failpointsResponse() api.FailpointsResponse {
	infos := failpoint.List()
	out := api.FailpointsResponse{Failpoints: make([]api.FailpointInfo, len(infos))}
	for i, fi := range infos {
		out.Failpoints[i] = api.FailpointInfo{Name: fi.Name, Spec: fi.Spec, Hits: fi.Hits}
	}
	return out
}
