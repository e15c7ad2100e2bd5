package serve

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"templar/internal/pool"
	"templar/internal/sqlparse"
	"templar/internal/templar"
	"templar/internal/wal"
	"templar/pkg/api"
)

// Request-parsing limits; all overridable per server with WithLimits.
const (
	// DefaultMaxBodyBytes caps POST bodies; keyword batches are small.
	DefaultMaxBodyBytes = 1 << 20
	// DefaultMaxTranslateBatch caps queries per /translate call.
	DefaultMaxTranslateBatch = 64
	// DefaultMaxLogBatch caps entries per /log append.
	DefaultMaxLogBatch = 256
)

// defaultInferTopK is the route-level default for infer-joins requests
// that leave top_k unset (the engine default of 1 is for library callers).
const defaultInferTopK = 3

// Server exposes a Registry of named Templar engines over HTTP. All
// CPU-heavy work (mapping, inference, translation, engine loading) runs
// inside one shared worker pool, so concurrent clients across every
// dataset share a fixed parallelism budget; each engine is itself safe for
// concurrent use, so no request-level locking is needed anywhere.
//
// Routes come in three families:
//
//   - /v2/{dataset}/... — the current contract (pkg/api): top_k
//     everywhere, RFC-7807 problem+json errors with machine-readable
//     codes, structured per-item batch errors, per-request engine options.
//   - /v1/... and /v1/{dataset}/... — the frozen legacy contract, served
//     by thin adapters over the same core operations; successful bodies
//     are bit-identical to v2 and to the pre-v2 server.
//   - /admin/... — tenant management (structured errors, optionally
//     bearer-token protected).
//
// Every request flows through the middleware stack: request ID, optional
// access log, and the in-flight/latency metrics reported on /healthz.
type Server struct {
	reg         *Registry
	defaultName string
	pool        *pool.Pool
	loader      Loader
	adminToken  string

	maxBodyBytes      int64
	maxTranslateBatch int
	maxLogBatch       int

	accessLog *log.Logger
	metrics   metricsState
	idPrefix  string
	reqSeq    atomic.Uint64

	// adm is the server-wide admission state: in-flight bound, shed
	// counters and the drain flag (see overload.go).
	adm admission
	// tenantDefaults is the per-tenant limit applied to tenants without
	// an explicit override; nil means unlimited.
	tenantDefaults atomic.Pointer[TenantLimits]
}

// NewServer binds a single-tenant server to one system: a registry holding
// only dataset, which also serves the legacy unprefixed routes. workers < 1
// picks the pool default.
func NewServer(sys *templar.System, dataset string, workers int) *Server {
	reg := NewRegistry()
	if err := reg.Add(&Tenant{Name: dataset, Sys: sys, Source: "preloaded"}); err != nil {
		panic("serve: " + err.Error())
	}
	return NewRegistryServer(reg, dataset, workers, nil)
}

// NewRegistryServer binds a multi-tenant server to a registry.
// defaultDataset names the tenant behind the legacy unprefixed routes (it
// need not be registered yet — it may arrive later through the admin API).
// loader, when non-nil, enables POST /admin/datasets to materialize new
// tenants on demand.
func NewRegistryServer(reg *Registry, defaultDataset string, workers int, loader Loader) *Server {
	return &Server{
		reg:               reg,
		defaultName:       defaultDataset,
		pool:              pool.New(workers),
		loader:            loader,
		maxBodyBytes:      DefaultMaxBodyBytes,
		maxTranslateBatch: DefaultMaxTranslateBatch,
		maxLogBatch:       DefaultMaxLogBatch,
		idPrefix:          newIDPrefix(),
	}
}

// WithAdminToken requires `Authorization: Bearer token` on every /admin
// route. The serving routes stay open: the admin API mutates tenants
// (dropping one breaks its traffic, loading one burns pool workers), so
// deployments that expose the listener beyond a trusted network should
// set a token — or front /admin with their own auth. An empty token
// leaves the admin API open, the single-operator development default.
func (s *Server) WithAdminToken(token string) *Server {
	s.adminToken = token
	return s
}

// WithLimits overrides the request-parsing caps; zero keeps the default
// for that limit. Exceeding maxBodyBytes is a 413 CodeBodyTooLarge;
// exceeding a batch cap is a 422 CodeBatchTooLarge.
func (s *Server) WithLimits(maxBodyBytes int64, maxTranslateBatch, maxLogBatch int) *Server {
	if maxBodyBytes > 0 {
		s.maxBodyBytes = maxBodyBytes
	}
	if maxTranslateBatch > 0 {
		s.maxTranslateBatch = maxTranslateBatch
	}
	if maxLogBatch > 0 {
		s.maxLogBatch = maxLogBatch
	}
	return s
}

// WithAccessLog emits one line per request (method, path, status, bytes,
// latency, request ID) to l. A nil logger disables access logging.
func (s *Server) WithAccessLog(l *log.Logger) *Server {
	s.accessLog = l
	return s
}

// Pool returns the server's worker pool.
func (s *Server) Pool() *pool.Pool { return s.pool }

// Registry returns the server's tenant registry.
func (s *Server) Registry() *Registry { return s.reg }

// Route is one registered method+pattern pair. Routes() feeds the
// OpenAPI-sync check (make api-check), which asserts docs/openapi.yaml
// describes exactly the v2 surface the server registers.
type Route struct {
	Method  string
	Pattern string
	handler http.HandlerFunc
}

// Routes returns the full route table in registration order.
func (s *Server) Routes() []Route {
	routes := []Route{
		{Method: http.MethodGet, Pattern: "/healthz", handler: s.handleHealth},
		{Method: http.MethodGet, Pattern: "/v2/datasets", handler: s.handleV2Datasets},
	}
	type endpoint struct {
		name string
		v1   func(http.ResponseWriter, *http.Request, *Tenant)
		v2   func(http.ResponseWriter, *http.Request, *Tenant)
	}
	for _, ep := range []endpoint{
		{"map-keywords", s.handleV1MapKeywords, s.handleV2MapKeywords},
		{"infer-joins", s.handleV1InferJoins, s.handleV2InferJoins},
		{"translate", s.handleV1Translate, s.handleV2Translate},
		{"log", s.handleV1Log, s.handleV2Log},
	} {
		routes = append(routes,
			Route{Method: http.MethodPost, Pattern: "/v2/{dataset}/" + ep.name, handler: s.withTenant(ep.v2, true)},
			Route{Method: http.MethodPost, Pattern: "/v1/{dataset}/" + ep.name, handler: s.withTenant(ep.v1, false)},
			Route{Method: http.MethodPost, Pattern: "/v1/" + ep.name, handler: s.withTenant(ep.v1, false)},
		)
	}
	return append(routes,
		// Feedback is v2-only: it depends on X-Request-ID plumbing and the
		// RFC-7807 claim-conflict vocabulary, neither of which the frozen
		// v1 contract has.
		Route{Method: http.MethodPost, Pattern: "/v2/{dataset}/feedback", handler: s.withTenant(s.handleV2Feedback, true)},
		// Replication: the WAL tail stream and its bootstrap snapshot
		// (internal/repl speaks these; regular clients never need them).
		Route{Method: http.MethodGet, Pattern: "/v2/{dataset}/wal", handler: s.withTenant(s.handleV2WALTail, true)},
		Route{Method: http.MethodGet, Pattern: "/v2/{dataset}/snapshot", handler: s.withTenant(s.handleV2Snapshot, true)},
		Route{Method: http.MethodGet, Pattern: "/admin/datasets", handler: s.handleAdminList},
		Route{Method: http.MethodPost, Pattern: "/admin/datasets", handler: s.handleAdminLoad},
		Route{Method: http.MethodDelete, Pattern: "/admin/datasets/{name}", handler: s.handleAdminRemove},
		Route{Method: http.MethodPut, Pattern: "/admin/datasets/{name}/limits", handler: s.handleAdminLimits},
	)
}

// Handler returns the route table wrapped in the middleware stack.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.Routes() {
		mux.HandleFunc(rt.Method+" "+rt.Pattern, rt.handler)
	}
	return s.withMiddleware(mux)
}

// withTenant resolves the request's dataset — the {dataset} path segment,
// or the default for unprefixed legacy routes — with one atomic registry
// load, and 404s unknown names in the requested contract's error shape.
func (s *Server) withTenant(h func(http.ResponseWriter, *http.Request, *Tenant), v2 bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("dataset")
		if name == "" {
			name = s.defaultName
		}
		t := s.reg.Get(name)
		if t == nil {
			e := api.Errorf(http.StatusNotFound, api.CodeUnknownDataset, "serve: unknown dataset %q", name)
			e.Dataset = name
			if v2 {
				s.writeProblem(w, r, e)
			} else {
				s.writeLegacyError(w, e)
			}
			return
		}
		// Per-tenant admission: rate and in-flight quota checks run after
		// the server-wide gate (middleware) and before any body is read,
		// so a shed costs the hot tenant microseconds, not a pool worker.
		if ok, e, retryAfter := s.admitTenant(t); !ok {
			s.writeShed(w, r, e, retryAfter)
			return
		}
		defer releaseTenant(t)
		h(w, r, t)
	}
}

// ---------------------------------------------------------------------------
// Core operations: contract-agnostic request execution shared by the v1
// adapter and the v2 handlers. Each returns (response, nil) on success,
// (nil, *api.Error) on failure, and (nil, nil) when the client vanished
// before an answer existed — in which case nothing must be written.

func (s *Server) coreMapKeywords(ctx context.Context, eng *templar.Engine, in api.KeywordsInput, topK int, co api.CallOptions) (*api.MapKeywordsResponse, *api.Error) {
	kws, apiErr := decodeKeywords(in)
	if apiErr != nil {
		return nil, apiErr
	}
	opts, apiErr := decodeCallOptions(co, 0, 0)
	if apiErr != nil {
		return nil, apiErr
	}
	opts.TopK = topK
	var out *api.MapKeywordsResponse
	var engErr error
	if s.pool.RunCtx(ctx, func() {
		cfgs, err := eng.MapKeywords(ctx, kws, opts)
		if err != nil {
			engErr = err
			return
		}
		out = &api.MapKeywordsResponse{Configurations: fromConfigurations(cfgs)}
	}) != nil {
		return nil, nil // client gone before a worker freed up
	}
	if engErr != nil {
		if isCanceled(engErr) {
			return nil, nil // client gone mid-enumeration
		}
		return nil, engineError(engErr)
	}
	return out, nil
}

func (s *Server) coreInferJoins(ctx context.Context, eng *templar.Engine, relations []string, topK int) (*api.InferJoinsResponse, *api.Error) {
	if len(relations) == 0 {
		return nil, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation, "serve: no relations")
	}
	if topK <= 0 {
		topK = defaultInferTopK
	}
	var out *api.InferJoinsResponse
	var engErr error
	if s.pool.RunCtx(ctx, func() {
		paths, err := eng.InferJoins(ctx, relations, &templar.CallOptions{TopK: topK})
		if err != nil {
			engErr = err
			return
		}
		resp := api.InferJoinsResponse{Paths: make([]api.Path, len(paths))}
		for i, p := range paths {
			resp.Paths[i] = fromPath(p)
		}
		out = &resp
	}) != nil {
		return nil, nil
	}
	if engErr != nil {
		if isCanceled(engErr) {
			return nil, nil
		}
		return nil, engineError(engErr)
	}
	return out, nil
}

func (s *Server) coreTranslate(ctx context.Context, eng *templar.Engine, req api.TranslateRequest) (*api.TranslateResponse, *api.Error) {
	if len(req.Queries) == 0 {
		return nil, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation, "serve: empty batch")
	}
	if len(req.Queries) > s.maxTranslateBatch {
		return nil, api.Errorf(http.StatusUnprocessableEntity, api.CodeBatchTooLarge,
			"serve: translate batch of %d exceeds the cap of %d", len(req.Queries), s.maxTranslateBatch)
	}
	opts, apiErr := decodeCallOptions(req.CallOptions, req.TopConfigs, req.TopPaths)
	if apiErr != nil {
		return nil, apiErr
	}
	results := make([]api.TranslateResult, len(req.Queries))
	// The request context rides into the pool: once the client disconnects,
	// queued batch items stop claiming workers and running items abort
	// inside the engine.
	err := s.pool.ForEachCtx(ctx, len(req.Queries), func(i int) {
		// Batch items run on pool goroutines, outside net/http's
		// per-request recover: a panic here would kill the whole server,
		// so contain it as a per-item error like any other failure.
		defer func() {
			if r := recover(); r != nil {
				results[i] = api.TranslateResult{Error: api.Errorf(
					http.StatusInternalServerError, api.CodeInternal, "serve: internal error: %v", r)}
			}
		}()
		kws, apiErr := decodeKeywords(req.Queries[i])
		if apiErr != nil {
			results[i] = api.TranslateResult{Error: apiErr}
			return
		}
		tr, err := eng.Translate(ctx, kws, opts)
		if err != nil {
			if !isCanceled(err) {
				results[i] = api.TranslateResult{Error: engineError(err)}
			}
			return
		}
		results[i] = fromTranslation(tr)
	})
	if err != nil {
		return nil, nil // canceled batch: the client is no longer listening
	}
	return &api.TranslateResponse{Results: results}, nil
}

func (s *Server) coreLogAppend(ctx context.Context, t *Tenant, req api.LogAppendRequest) (*api.LogAppendResponse, *api.Error) {
	live := t.Sys.Live()
	if live == nil {
		return nil, api.NewError(http.StatusConflict, api.CodeLogFrozen,
			"serve: log appends disabled: system built over a frozen log")
	}
	if len(req.Queries) == 0 {
		return nil, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation, "serve: no queries")
	}
	if len(req.Queries) > s.maxLogBatch {
		return nil, api.Errorf(http.StatusUnprocessableEntity, api.CodeBatchTooLarge,
			"serve: log batch of %d exceeds the cap of %d", len(req.Queries), s.maxLogBatch)
	}
	// Parsing and the O(V+E) snapshot recompile are CPU-heavy, so appends
	// share the worker pool (and honor disconnects) like every endpoint.
	var out *api.LogAppendResponse
	var appendErr *api.Error
	if s.pool.RunCtx(ctx, func() {
		// Parse, alias-resolve and normalize the whole batch before touching
		// the WAL or the log: one malformed query rejects the batch instead
		// of half-applying, and — with a WAL attached — nothing that could
		// still fail runs after a record is durable, so a logged record
		// always replays cleanly.
		parsed := make([]*sqlparse.Query, len(req.Queries))
		counts := make([]int, len(req.Queries))
		for i, e := range req.Queries {
			q, err := sqlparse.Parse(e.SQL)
			if err == nil {
				err = q.Resolve(nil)
			}
			if err != nil {
				appendErr = api.Errorf(http.StatusUnprocessableEntity, api.CodeValidation,
					"serve: query %d: %v", i, err).WithItem(i, api.CodeValidation, err.Error())
				return
			}
			parsed[i] = q
			counts[i] = e.Count
			if counts[i] <= 0 {
				counts[i] = 1
			}
		}
		decay := req.Decay
		if req.Session {
			if decay == 0 {
				decay = 0.5
			}
			if decay <= 0 || decay > 1 {
				appendErr = api.Errorf(http.StatusUnprocessableEntity, api.CodeValidation,
					"serve: session decay %v outside (0, 1]", decay)
				return
			}
		}

		// appendMu holds the WAL write and the engine apply together: WAL
		// order is apply order is replay order, and a concurrent compaction
		// cannot rotate the segment between the two.
		t.appendMu.Lock()
		defer t.appendMu.Unlock()
		var walSeq uint64
		if t.WAL != nil {
			rec := &wal.Record{Session: req.Session, Entries: make([]wal.Entry, len(parsed))}
			for i, e := range req.Queries {
				// Record the raw SQL with normalized counts: replay re-parses
				// and re-resolves exactly what was applied here.
				rec.Entries[i] = wal.Entry{SQL: e.SQL, Count: counts[i]}
			}
			if req.Session {
				rec.Count, rec.Decay = 1, decay
			}
			seq, err := t.WAL.Append(rec)
			if err != nil {
				// The record is not durable, so it must not be applied or
				// acknowledged. The log poisons itself on write failure;
				// operators see it on /healthz and in the runbook.
				appendErr = api.Errorf(http.StatusInternalServerError, api.CodeInternal,
					"serve: write-ahead log append failed: %v", err)
				return
			}
			walSeq = seq
		}
		if req.Session {
			if err := live.AddSession(parsed, 1, decay); err != nil {
				// Unreachable with a WAL attached: decay was validated above.
				appendErr = api.NewError(http.StatusUnprocessableEntity, api.CodeValidation, err.Error())
				return
			}
		} else {
			live.AddQueries(parsed, counts)
		}
		snap := live.CurrentSnapshot()
		out = &api.LogAppendResponse{
			Appended:     len(parsed),
			LogQueries:   snap.Queries(),
			LogFragments: snap.Vertices(),
			LogEdges:     snap.Edges(),
			WALSeq:       int64(walSeq),
		}
	}) != nil {
		return nil, nil // client gone before a worker freed up
	}
	if appendErr != nil {
		return nil, appendErr
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// v2 handlers: pkg/api shapes in, problem+json errors out.

func (s *Server) handleV2MapKeywords(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req api.MapKeywordsRequest
	if apiErr := s.readJSON(w, r, &req); apiErr != nil {
		s.writeProblem(w, r, apiErr)
		return
	}
	resp, apiErr := s.coreMapKeywords(r.Context(), t.Sys.Engine(), req.KeywordsInput, req.TopK, req.CallOptions)
	writeV2(s, w, r, resp, apiErr)
}

func (s *Server) handleV2InferJoins(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req api.InferJoinsRequest
	if apiErr := s.readJSON(w, r, &req); apiErr != nil {
		s.writeProblem(w, r, apiErr)
		return
	}
	resp, apiErr := s.coreInferJoins(r.Context(), t.Sys.Engine(), req.Relations, req.TopK)
	writeV2(s, w, r, resp, apiErr)
}

func (s *Server) handleV2Translate(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req api.TranslateRequest
	if apiErr := s.readJSON(w, r, &req); apiErr != nil {
		s.writeProblem(w, r, apiErr)
		return
	}
	eng := t.Sys.Engine()
	resp, apiErr := s.coreTranslate(r.Context(), eng, req)
	if apiErr == nil && resp != nil {
		// Remember what was served so POST /v2/{dataset}/feedback can turn
		// a verdict on this request ID into a log append (feedback.go).
		recordTranslation(t, eng, RequestIDFrom(r.Context()), req, resp)
	}
	writeV2(s, w, r, resp, apiErr)
}

func (s *Server) handleV2Log(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if t.Follower != nil {
		// A follower never applies writes; the append belongs on the
		// primary, whose WAL is the one replication stream.
		s.redirectToPrimary(w, r, t, true)
		return
	}
	var req api.LogAppendRequest
	if apiErr := s.readJSON(w, r, &req); apiErr != nil {
		s.writeProblem(w, r, apiErr)
		return
	}
	resp, apiErr := s.coreLogAppend(r.Context(), t, req)
	writeV2(s, w, r, resp, apiErr)
}

// handleV2Datasets lists the hosted datasets — the public (non-admin)
// discovery endpoint SDK clients use to pick a dataset.
func (s *Server) handleV2Datasets(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.datasetsResponse())
}

// datasetsResponse renders every tenant's status, shared by the public
// and admin listings so the two views cannot drift.
func (s *Server) datasetsResponse() api.DatasetsResponse {
	resp := api.DatasetsResponse{Datasets: []api.DatasetStatus{}}
	for _, t := range s.reg.Tenants() {
		resp.Datasets = append(resp.Datasets, s.tenantStatus(t))
	}
	return resp
}

// writeV2 finishes a v2 request from a core-op result, handling the
// tri-state contract (response / error / client gone). The pointer type
// parameter keeps the nil check honest for any response type.
func writeV2[T any](s *Server, w http.ResponseWriter, r *http.Request, resp *T, apiErr *api.Error) {
	switch {
	case apiErr != nil:
		s.writeProblem(w, r, apiErr)
	case resp == nil:
		// Client gone: write nothing, the middleware logs 499.
	default:
		s.writeJSON(w, http.StatusOK, resp)
	}
}

// ---------------------------------------------------------------------------
// Health and admin.

// tenantStatus renders one tenant's engine stats for health/admin bodies.
func (s *Server) tenantStatus(t *Tenant) api.DatasetStatus {
	ds := api.DatasetStatus{
		Name:      t.Name,
		Default:   strings.EqualFold(t.Name, s.defaultName),
		Source:    t.Source,
		Relations: len(t.Sys.Database().Schema().Relations()),
		LiveLog:   t.Sys.Live() != nil,
	}
	if t.LoadTime > 0 {
		ds.LoadMillis = float64(t.LoadTime) / float64(time.Millisecond)
	}
	if snap := t.Sys.Snapshot(); snap != nil {
		ds.LogQueries = snap.Queries()
		ds.LogFragments = snap.Vertices()
		ds.LogEdges = snap.Edges()
	}
	if t.WAL != nil {
		ds.WAL = walStatus(t.WAL.Stats())
	}
	if t.Follower != nil {
		ds.Repl = t.Follower.Status()
		// Appends are redirected to the primary, not applied here.
		ds.LiveLog = false
	}
	ds.Load = s.tenantLoadStatus(t)
	ds.Feedback = t.feedbackStatus()
	return ds
}

// walStatus renders wal counters into the frozen wire shape.
func walStatus(st wal.Stats) *api.WALStatus {
	out := &api.WALStatus{
		Seq:              int64(st.Seq),
		Records:          st.Records,
		Bytes:            st.Bytes,
		SyncPolicy:       st.SyncPolicy,
		Compactions:      st.Compactions,
		RecoveredRecords: st.RecoveredRecords,
		DroppedBytes:     st.DroppedBytes,
	}
	if !st.LastSync.IsZero() {
		out.LastSyncUnixMS = st.LastSync.UnixMilli()
	}
	if !st.LastCompaction.IsZero() {
		out.LastCompactionUnixMS = st.LastCompaction.UnixMilli()
	}
	return out
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := api.HealthResponse{
		Status:   "ok",
		Dataset:  s.defaultName,
		Workers:  s.pool.Workers(),
		Metrics:  s.metrics.snapshot(s.adm.inFlight.Load()),
		Overload: s.adm.snapshot(),
	}
	status := http.StatusOK
	if s.adm.draining.Load() {
		// Draining answers 503 so load balancers stop routing here, with
		// the full body so operators can watch in-flight fall to zero.
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	for _, t := range s.reg.Tenants() {
		st := s.tenantStatus(t)
		resp.Datasets = append(resp.Datasets, st)
		if st.Default {
			// The top-level fields mirror the default dataset, keeping the
			// single-tenant health shape clients already parse.
			resp.Dataset = t.Name
			resp.Relations = st.Relations
			resp.LiveLog = st.LiveLog
			resp.LogQueries = st.LogQueries
			resp.LogFragments = st.LogFragments
			resp.LogEdges = st.LogEdges
			resp.WAL = st.WAL
			resp.Repl = st.Repl
			resp.Feedback = st.Feedback
		}
	}
	s.writeJSON(w, status, resp)
}

// adminAuthorized enforces the optional admin bearer token, writing the
// 401 itself when the check fails.
func (s *Server) adminAuthorized(w http.ResponseWriter, r *http.Request) bool {
	if s.adminToken == "" {
		return true
	}
	got := []byte(r.Header.Get("Authorization"))
	want := []byte("Bearer " + s.adminToken)
	if subtle.ConstantTimeCompare(got, want) == 1 {
		return true
	}
	s.writeProblem(w, r, api.NewError(http.StatusUnauthorized, api.CodeUnauthorized,
		"serve: admin authorization required"))
	return false
}

func (s *Server) handleAdminList(w http.ResponseWriter, r *http.Request) {
	if !s.adminAuthorized(w, r) {
		return
	}
	s.writeJSON(w, http.StatusOK, s.datasetsResponse())
}

func (s *Server) handleAdminLoad(w http.ResponseWriter, r *http.Request) {
	if !s.adminAuthorized(w, r) {
		return
	}
	var req api.AdminLoadRequest
	if apiErr := s.readJSON(w, r, &req); apiErr != nil {
		s.writeProblem(w, r, apiErr)
		return
	}
	name := strings.TrimSpace(req.Name)
	if name == "" {
		s.writeProblem(w, r, api.NewError(http.StatusBadRequest, api.CodeValidation, "serve: no dataset name"))
		return
	}
	if s.loader == nil {
		s.writeProblem(w, r, api.NewError(http.StatusNotImplemented, api.CodeNotConfigured,
			"serve: dataset loading not configured"))
		return
	}
	if t := s.reg.Get(name); t != nil {
		s.writeProblem(w, r, api.Errorf(http.StatusConflict, api.CodeConflict,
			"serve: dataset %q already loaded", t.Name))
		return
	}
	// Loading re-mines a log or decodes a snapshot — CPU-heavy, so it
	// claims a pool worker like any other request.
	var tenant *Tenant
	var loadErr error
	if s.pool.RunCtx(r.Context(), func() {
		tenant, loadErr = s.loader(r.Context(), name)
	}) != nil {
		return // client gone before a worker freed up
	}
	if loadErr != nil {
		e := api.NewError(http.StatusInternalServerError, api.CodeInternal, loadErr.Error())
		if errors.Is(loadErr, ErrUnknownDataset) {
			e = api.NewError(http.StatusNotFound, api.CodeUnknownDataset, loadErr.Error())
		}
		s.writeProblem(w, r, e)
		return
	}
	if err := s.reg.Add(tenant); err != nil {
		// Lost a concurrent load race for the same name.
		s.writeProblem(w, r, api.NewError(http.StatusConflict, api.CodeConflict, err.Error()))
		return
	}
	s.writeJSON(w, http.StatusCreated, s.tenantStatus(tenant))
}

func (s *Server) handleAdminRemove(w http.ResponseWriter, r *http.Request) {
	if !s.adminAuthorized(w, r) {
		return
	}
	name := r.PathValue("name")
	if strings.EqualFold(name, s.defaultName) {
		s.writeProblem(w, r, api.Errorf(http.StatusConflict, api.CodeConflict,
			"serve: dataset %q is the default (legacy routes alias it); it cannot be removed", name))
		return
	}
	if !s.reg.Remove(name) {
		s.writeProblem(w, r, api.Errorf(http.StatusNotFound, api.CodeUnknownDataset,
			"serve: unknown dataset %q", name))
		return
	}
	s.writeJSON(w, http.StatusOK, api.AdminRemoveResponse{Removed: name})
}

// handleAdminLimits sets (or, with an all-zero body, clears) a tenant's
// per-tenant limit override at runtime — the operator's throttle for a
// hot dataset, no restart needed. Responds with the tenant's full status
// so the caller sees the limits it just installed.
func (s *Server) handleAdminLimits(w http.ResponseWriter, r *http.Request) {
	if !s.adminAuthorized(w, r) {
		return
	}
	t := s.reg.Get(r.PathValue("name"))
	if t == nil {
		s.writeProblem(w, r, api.Errorf(http.StatusNotFound, api.CodeUnknownDataset,
			"serve: unknown dataset %q", r.PathValue("name")))
		return
	}
	var req api.TenantLimits
	if apiErr := s.readJSON(w, r, &req); apiErr != nil {
		s.writeProblem(w, r, apiErr)
		return
	}
	if req.PerSecond < 0 || req.Burst < 0 || req.MaxInFlight < 0 {
		s.writeProblem(w, r, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation,
			"serve: limits must be non-negative"))
		return
	}
	if req.Burst > 0 && req.PerSecond <= 0 {
		s.writeProblem(w, r, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation,
			"serve: burst without per_second never refills"))
		return
	}
	t.SetLimits(TenantLimits{PerSecond: req.PerSecond, Burst: req.Burst, MaxInFlight: req.MaxInFlight})
	s.writeJSON(w, http.StatusOK, s.tenantStatus(t))
}

// ---------------------------------------------------------------------------
// Encoding / decoding plumbing.

// readJSON decodes a JSON body under the server's byte cap, classifying
// failures into the structured error model (the caller picks the error
// dialect to write).
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst any) *api.Error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBodyBytes))
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return api.Errorf(http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
				"serve: request body exceeds %d bytes", tooBig.Limit)
		}
		return api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "serve: bad request body: %v", err)
	}
	return nil
}

// isCanceled reports whether an engine error is the request context
// expiring — i.e. the client is gone and no response should be written.
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// jsonBufPool recycles response encode buffers across requests: bodies are
// marshaled fully in memory first, so every response goes out with an exact
// Content-Length in a single Write, and a marshal failure surfaces as a
// clean 500 instead of a half-written 200.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledEncodeBuf caps the buffers the pool retains, so one huge
// response (a big dataset listing, say) doesn't pin its backing forever.
const maxPooledEncodeBuf = 1 << 20

func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	s.writeJSONAs(w, status, "application/json", body)
}

// writeJSONAs encodes body into a pooled buffer and writes status, headers
// and the body in one shot. Nothing touches the ResponseWriter until the
// encode has succeeded, which is what makes the failure path clean.
func (s *Server) writeJSONAs(w http.ResponseWriter, status int, contentType string, body any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		jsonBufPool.Put(buf)
		s.encodeFailure(w)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledEncodeBuf {
		jsonBufPool.Put(buf)
	}
}

// encodeFailure finishes a request whose response body failed to marshal:
// the failure is counted for /healthz and the client gets a hand-built
// problem document (the structured marshal path is what just failed).
func (s *Server) encodeFailure(w http.ResponseWriter) {
	s.metrics.encodeFailures.Add(1)
	w.Header().Set("Content-Type", api.ProblemContentType)
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = fmt.Fprintf(w, `{"status":500,"code":%q,"detail":"serve: response body failed to encode"}`+"\n", api.CodeInternal)
}

// writeProblem writes a v2 error as an RFC-7807 problem document,
// stamping the middleware's request ID into it.
func (s *Server) writeProblem(w http.ResponseWriter, r *http.Request, e *api.Error) {
	e.RequestID = RequestIDFrom(r.Context())
	s.writeJSONAs(w, e.Status, api.ProblemContentType, e)
}
