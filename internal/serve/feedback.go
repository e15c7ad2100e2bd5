package serve

// Feedback: the serving half of the learning loop (internal/feedback).
// The v2 translate handler records what it served into a per-tenant
// ledger; POST /v2/{dataset}/feedback turns a later verdict on that
// request ID into a WAL-first log append through the exact same
// coreLogAppend discipline explicit appends use, so feedback survives
// crashes and ships to followers unchanged. See docs/LEARNING.md.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"templar/internal/feedback"
	"templar/internal/sqlparse"
	"templar/internal/templar"
	"templar/pkg/api"
)

// MaxFeedbackWeight caps the confidence multiplicity one verdict may
// carry. A single submission can therefore outrank at most this many
// mined log entries — the first poisoning guardrail: flooding the graph
// through feedback takes many distinct served translations, not one
// enthusiastic client (see docs/LEARNING.md).
const MaxFeedbackWeight = 16

// FeedbackLedger returns the tenant's translation ledger, creating it on
// first use (capacity FeedbackCapacity, or feedback.DefaultCapacity).
func (t *Tenant) FeedbackLedger() *feedback.Ledger {
	if l := t.fb.Load(); l != nil {
		return l
	}
	capacity := t.FeedbackCapacity
	if capacity <= 0 {
		capacity = feedback.DefaultCapacity
	}
	l := feedback.New(capacity)
	if t.fb.CompareAndSwap(nil, l) {
		return l
	}
	return t.fb.Load()
}

// feedbackStatus renders the tenant's ledger counters into the wire
// shape, or nil while the tenant has never recorded a translation.
func (t *Tenant) feedbackStatus() *api.FeedbackStatus {
	l := t.fb.Load()
	if l == nil {
		return nil
	}
	st := l.Stats()
	return &api.FeedbackStatus{
		LedgerSize:     st.Size,
		LedgerCapacity: st.Capacity,
		Recorded:       st.Recorded,
		Evicted:        st.Evicted,
		Accepted:       st.Accepted,
		Rejected:       st.Rejected,
		Corrected:      st.Corrected,
		Conflicts:      st.Conflicts,
		Unknown:        st.Unknown,
	}
}

// recordTranslation enters a v2 translation served by eng into the
// tenant's ledger so a later verdict can reference it by request ID.
// Followers skip recording: their feedback redirects to the primary, which
// serves its own ledger.
func recordTranslation(t *Tenant, eng *templar.Engine, requestID string, req api.TranslateRequest, resp *api.TranslateResponse) {
	if requestID == "" || resp == nil || t.Follower != nil {
		return
	}
	served := make([]feedback.Served, 0, len(resp.Results))
	for i, res := range resp.Results {
		if res.Error != nil || res.SQL == "" {
			continue
		}
		sv := feedback.Served{SQL: res.SQL, Score: res.Score}
		if i < len(req.Queries) {
			// The input text, lossless: spec form as-is, structured keyword
			// batches as their canonical JSON encoding.
			if spec := req.Queries[i].Spec; spec != "" {
				sv.Query = spec
			} else if raw, err := json.Marshal(req.Queries[i]); err == nil {
				sv.Query = string(raw)
			}
		}
		if res.Config != nil {
			sv.Fragments = make([]string, 0, len(res.Config.Mappings))
			for _, m := range res.Config.Mappings {
				sv.Fragments = append(sv.Fragments, m.Fragment)
			}
		}
		served = append(served, sv)
	}
	if len(served) == 0 {
		return
	}
	entry := feedback.Entry{
		RequestID:  requestID,
		Dataset:    t.Name,
		Served:     served,
		RecordedAt: time.Now(),
	}
	if snap := eng.Snapshot(); snap != nil {
		entry.Obscurity = snap.Obscurity().String()
	}
	t.FeedbackLedger().Record(entry)
}

func (s *Server) handleV2Feedback(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if t.Follower != nil {
		// Verdicts mutate the log; like appends they belong on the primary
		// (whose ledger recorded the translation it served).
		s.redirectToPrimary(w, r, t, true)
		return
	}
	var req api.FeedbackRequest
	if apiErr := s.readJSON(w, r, &req); apiErr != nil {
		s.writeProblem(w, r, apiErr)
		return
	}
	resp, apiErr := s.coreFeedback(r.Context(), t, req)
	writeV2(s, w, r, resp, apiErr)
}

// coreFeedback applies one verdict: validate, claim the ledger entry
// (exactly-once), and for accepted/corrected verdicts run the resulting
// queries through the WAL-first coreLogAppend discipline. A failed apply
// releases the claim so the client may retry; a success commits it so no
// second submission can ever double-count.
func (s *Server) coreFeedback(ctx context.Context, t *Tenant, req api.FeedbackRequest) (*api.FeedbackResponse, *api.Error) {
	id := strings.TrimSpace(req.RequestID)
	if id == "" {
		return nil, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation,
			"serve: feedback requires the request_id of a served translation")
	}
	switch req.Verdict {
	case api.VerdictAccepted, api.VerdictRejected, api.VerdictCorrected:
	default:
		return nil, api.Errorf(http.StatusUnprocessableEntity, api.CodeValidation,
			"serve: unknown verdict %q (want accepted, rejected or corrected)", req.Verdict)
	}
	if req.Weight < 0 || req.Weight > MaxFeedbackWeight {
		return nil, api.Errorf(http.StatusUnprocessableEntity, api.CodeValidation,
			"serve: confidence weight %d outside [0, %d]", req.Weight, MaxFeedbackWeight)
	}
	weight := req.Weight
	if weight < 1 {
		weight = 1
	}
	if req.CorrectedSQL != "" && req.Verdict != api.VerdictCorrected {
		return nil, api.Errorf(http.StatusUnprocessableEntity, api.CodeValidation,
			"serve: corrected_sql is only valid with verdict %q", api.VerdictCorrected)
	}
	if req.Verdict == api.VerdictCorrected {
		// Parse before claiming: a malformed correction must not consume
		// (or even transiently hold) the entry's single verdict slot.
		if strings.TrimSpace(req.CorrectedSQL) == "" {
			return nil, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation,
				"serve: verdict \"corrected\" requires corrected_sql")
		}
		q, err := sqlparse.Parse(req.CorrectedSQL)
		if err == nil {
			err = q.Resolve(nil)
		}
		if err != nil {
			return nil, api.Errorf(http.StatusUnprocessableEntity, api.CodeInvalidSQL,
				"serve: corrected_sql: %v", err)
		}
	}

	led := t.FeedbackLedger()
	entry, err := led.Claim(id)
	switch {
	case errors.Is(err, feedback.ErrUnknown):
		return nil, api.Errorf(http.StatusNotFound, api.CodeUnknownRequestID,
			"serve: request id %q is not in the translation ledger (never served here, or evicted)", id)
	case errors.Is(err, feedback.ErrConflict):
		return nil, api.Errorf(http.StatusConflict, api.CodeFeedbackConflict,
			"serve: a verdict for request id %q was already submitted", id)
	case err != nil:
		return nil, api.Errorf(http.StatusInternalServerError, api.CodeInternal, "serve: %v", err)
	}

	out := &api.FeedbackResponse{RequestID: id, Verdict: req.Verdict}
	if req.Verdict == api.VerdictRejected {
		// Recorded for the counters, never appended: a rejection without a
		// correction carries no fragment evidence worth mining.
		led.Commit(id, feedback.Rejected)
		if snap := t.Sys.Snapshot(); snap != nil {
			out.LogQueries = snap.Queries()
			out.LogFragments = snap.Vertices()
			out.LogEdges = snap.Edges()
		}
		return out, nil
	}

	la := api.LogAppendRequest{}
	if req.Verdict == api.VerdictCorrected {
		la.Queries = []api.LogEntry{{SQL: req.CorrectedSQL, Count: weight}}
	} else {
		for _, sv := range entry.Served {
			la.Queries = append(la.Queries, api.LogEntry{SQL: sv.SQL, Count: weight})
		}
		if req.Session && len(la.Queries) > 1 {
			// An accepted multi-query batch can be folded as one ordered
			// session: cross-query pairs gain decayed co-occurrence
			// evidence, the recency/confidence half of the weighting model.
			la.Session = true
			la.Decay = req.Decay
		}
	}
	resp, apiErr := s.coreLogAppend(ctx, t, la)
	if apiErr != nil || resp == nil {
		// Frozen log, invalid decay, lost client, ...: nothing was applied,
		// so the verdict slot reopens for a retry.
		led.Release(id)
		return nil, apiErr
	}
	led.Commit(id, feedback.Verdict(req.Verdict))
	out.Applied = resp.Appended
	out.LogQueries = resp.LogQueries
	out.LogFragments = resp.LogFragments
	out.LogEdges = resp.LogEdges
	out.WALSeq = resp.WALSeq
	return out, nil
}
