package serve

import (
	"net/http"

	"templar/pkg/api"
)

// The v1 compatibility adapter. The legacy /v1 contract is frozen:
//
//   - errors are the {"error": "..."} string envelope (V1Error), never
//     problem+json,
//   - map-keywords takes "top" (and, since the v2 redesign, accepts
//     "top_k" as a synonym; infer-joins likewise accepts both),
//   - translate batch items carry plain string errors (V1TranslateResult).
//
// Success bodies are the shared pkg/api response types, so a v1 answer is
// bit-identical to its v2 twin — TestV1V2Parity holds the adapter to
// that. Only the three shapes above differ, and they live here; every
// other wire type moved to pkg/api.

// V1MapKeywordsRequest is the body of POST /v1/map-keywords. Top and
// TopK are synonyms; Top wins when both are set (it is the original v1
// spelling).
type V1MapKeywordsRequest struct {
	api.KeywordsInput
	Top  int `json:"top,omitempty"`
	TopK int `json:"top_k,omitempty"`
}

// V1InferJoinsRequest is the body of POST /v1/infer-joins. TopK is the
// original v1 spelling; Top is accepted as a synonym for symmetry with
// map-keywords.
type V1InferJoinsRequest struct {
	Relations []string `json:"relations"`
	TopK      int      `json:"top_k,omitempty"`
	Top       int      `json:"top,omitempty"`
}

// V1TranslateResult is one v1 batch entry: like api.TranslateResult but
// with the legacy string error.
type V1TranslateResult struct {
	SQL      string             `json:"sql,omitempty"`
	Rendered string             `json:"rendered,omitempty"`
	Score    float64            `json:"score,omitempty"`
	Tie      bool               `json:"tie,omitempty"`
	Config   *api.Configuration `json:"config,omitempty"`
	Path     *api.Path          `json:"path,omitempty"`
	Error    string             `json:"error,omitempty"`
}

// V1TranslateResponse is the body of a successful v1 translate call.
type V1TranslateResponse struct {
	Results []V1TranslateResult `json:"results"`
}

// V1Error is the uniform v1 error envelope.
type V1Error struct {
	Error string `json:"error"`
}

// legacyStatus maps a structured error code onto the status the v1
// contract used for that failure class. v2 distinguishes validation
// failures (422) from malformed JSON (400); v1 lumped both under 400.
func legacyStatus(e *api.Error) int {
	switch e.Code {
	case api.CodeValidation, api.CodeBadRequest:
		return http.StatusBadRequest
	case api.CodeUnprocessable:
		return http.StatusUnprocessableEntity
	default:
		// New failure classes (413 body cap, 422 batch cap, ...) and
		// passthrough statuses (404, 409) keep their structured status.
		return e.Status
	}
}

// writeLegacyError renders a structured error in the frozen v1 envelope.
func (s *Server) writeLegacyError(w http.ResponseWriter, e *api.Error) {
	s.writeJSON(w, legacyStatus(e), V1Error{Error: e.Detail})
}

// writeV1 finishes a v1 request from a core-op result (see writeV2 for
// the tri-state contract).
func writeV1[T any](s *Server, w http.ResponseWriter, resp *T, apiErr *api.Error) {
	switch {
	case apiErr != nil:
		s.writeLegacyError(w, apiErr)
	case resp == nil:
		// Client gone: write nothing.
	default:
		s.writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleV1MapKeywords(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req V1MapKeywordsRequest
	if apiErr := s.readJSON(w, r, &req); apiErr != nil {
		s.writeLegacyError(w, apiErr)
		return
	}
	top := req.Top
	if top == 0 {
		top = req.TopK
	}
	resp, apiErr := s.coreMapKeywords(r.Context(), t.Sys.Engine(), req.KeywordsInput, top, api.CallOptions{})
	writeV1(s, w, resp, apiErr)
}

func (s *Server) handleV1InferJoins(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req V1InferJoinsRequest
	if apiErr := s.readJSON(w, r, &req); apiErr != nil {
		s.writeLegacyError(w, apiErr)
		return
	}
	topK := req.TopK
	if topK == 0 {
		topK = req.Top
	}
	resp, apiErr := s.coreInferJoins(r.Context(), t.Sys.Engine(), req.Relations, topK)
	writeV1(s, w, resp, apiErr)
}

func (s *Server) handleV1Translate(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req api.TranslateRequest
	if apiErr := s.readJSON(w, r, &req); apiErr != nil {
		s.writeLegacyError(w, apiErr)
		return
	}
	// v1 ignores the v2-only per-request options even if present.
	req.TopConfigs, req.TopPaths, req.CallOptions = 0, 0, api.CallOptions{}
	resp, apiErr := s.coreTranslate(r.Context(), t.Sys.Engine(), req)
	if apiErr != nil || resp == nil {
		writeV1[api.TranslateResponse](s, w, nil, apiErr)
		return
	}
	legacy := V1TranslateResponse{Results: make([]V1TranslateResult, len(resp.Results))}
	for i, res := range resp.Results {
		lr := V1TranslateResult{
			SQL:      res.SQL,
			Rendered: res.Rendered,
			Score:    res.Score,
			Tie:      res.Tie,
			Config:   res.Config,
			Path:     res.Path,
		}
		if res.Error != nil {
			lr.Error = res.Error.Detail
		}
		legacy.Results[i] = lr
	}
	s.writeJSON(w, http.StatusOK, legacy)
}

func (s *Server) handleV1Log(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if t.Follower != nil {
		s.redirectToPrimary(w, r, t, false)
		return
	}
	var req api.LogAppendRequest
	if apiErr := s.readJSON(w, r, &req); apiErr != nil {
		s.writeLegacyError(w, apiErr)
		return
	}
	resp, apiErr := s.coreLogAppend(r.Context(), t, req)
	writeV1(s, w, resp, apiErr)
}
