package client

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/serve"
	"templar/internal/sqlparse"
	"templar/internal/templar"
	"templar/pkg/api"
)

// liveServer boots a real serving stack (MAS engine, live log, worker
// pool, middleware) and a Client against it: the SDK round-trip rig.
func liveServer(t testing.TB) *Client {
	t.Helper()
	ds := datasets.MAS()
	entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
	for _, task := range ds.Tasks {
		q, err := sqlparse.Parse(task.Gold)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	graph, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	sys := templar.NewLive(ds.DB, embedding.New(), qfg.NewLive(graph), templar.Options{LogJoin: true})
	ts := httptest.NewServer(serve.NewServer(sys, ds.Name, 4).Handler())
	t.Cleanup(ts.Close)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRoundTripEveryEndpoint drives each v2 endpoint through the SDK —
// the contract proof that pkg/api shapes round-trip client↔server.
func TestRoundTripEveryEndpoint(t *testing.T) {
	c := liveServer(t)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Dataset != "MAS" || !h.LiveLog || h.Metrics == nil {
		t.Fatalf("health = %+v", h)
	}

	dss, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dss) != 1 || dss[0].Name != "MAS" || !dss[0].Default {
		t.Fatalf("datasets = %+v", dss)
	}

	mk, err := c.MapKeywords(ctx, "mas", api.MapKeywordsRequest{
		KeywordsInput: api.KeywordsInput{Spec: "papers:select;Databases:where"},
		TopK:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(mk.Configurations); n == 0 || n > 2 {
		t.Fatalf("configurations = %d", n)
	}
	if mk.Configurations[0].Mappings[0].Fragment == "" {
		t.Fatalf("mapping lost its fragment: %+v", mk.Configurations[0].Mappings[0])
	}

	ij, err := c.InferJoins(ctx, "mas", api.InferJoinsRequest{
		Relations: []string{"publication", "domain"}, TopK: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ij.Paths) == 0 || len(ij.Paths[0].Edges) == 0 || ij.Paths[0].Goodness <= 0 {
		t.Fatalf("paths = %+v", ij.Paths)
	}

	tr, err := c.Translate(ctx, "mas", api.TranslateRequest{Queries: []api.KeywordsInput{
		{Spec: "papers:select;Databases:where"},
		{Spec: "authors:select;Data Mining:where"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Results) != 2 {
		t.Fatalf("results = %d", len(tr.Results))
	}
	for i, r := range tr.Results {
		if r.Error != nil || r.SQL == "" || r.Config == nil || r.Path == nil {
			t.Fatalf("result %d = %+v", i, r)
		}
	}

	one, err := c.TranslateOne(ctx, "mas", api.KeywordsInput{Spec: "papers:select;Databases:where"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(one.SQL, "publication") {
		t.Fatalf("sql = %q", one.SQL)
	}

	before := h.LogQueries
	ar, err := c.AppendLog(ctx, "mas", api.LogAppendRequest{Queries: []api.LogEntry{
		{SQL: "SELECT p.title FROM publication p WHERE p.citation_num > 50", Count: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Appended != 1 || ar.LogQueries != before+2 {
		t.Fatalf("append = %+v (before %d)", ar, before)
	}
}

// TestRoundTripErrorCodes proves the SDK surfaces every structured error
// class the v2 endpoints emit, branchable by code.
func TestRoundTripErrorCodes(t *testing.T) {
	c := liveServer(t)
	ctx := context.Background()

	wantCode := func(t *testing.T, err error, status int, code string) *api.Error {
		t.Helper()
		var apiErr *api.Error
		if !errors.As(err, &apiErr) {
			t.Fatalf("err = %v (%T), want *api.Error", err, err)
		}
		if apiErr.Status != status || apiErr.Code != code {
			t.Fatalf("got %d/%s (%q), want %d/%s", apiErr.Status, apiErr.Code, apiErr.Detail, status, code)
		}
		return apiErr
	}

	t.Run("unknown dataset", func(t *testing.T) {
		_, err := c.MapKeywords(ctx, "nonesuch", api.MapKeywordsRequest{
			KeywordsInput: api.KeywordsInput{Spec: "papers:select"},
		})
		e := wantCode(t, err, 404, api.CodeUnknownDataset)
		if e.Dataset != "nonesuch" {
			t.Fatalf("dataset field = %q", e.Dataset)
		}
	})
	t.Run("validation", func(t *testing.T) {
		_, err := c.MapKeywords(ctx, "mas", api.MapKeywordsRequest{})
		wantCode(t, err, 422, api.CodeValidation)
	})
	t.Run("unprocessable", func(t *testing.T) {
		_, err := c.InferJoins(ctx, "mas", api.InferJoinsRequest{Relations: []string{"nonesuch"}})
		wantCode(t, err, 422, api.CodeUnprocessable)
	})
	t.Run("per-item translate error", func(t *testing.T) {
		_, err := c.TranslateOne(ctx, "mas", api.KeywordsInput{Spec: "oops"})
		wantCode(t, err, 422, api.CodeValidation)
	})
	t.Run("batch too large", func(t *testing.T) {
		queries := make([]api.KeywordsInput, serve.DefaultMaxTranslateBatch+1)
		for i := range queries {
			queries[i] = api.KeywordsInput{Spec: "papers:select"}
		}
		_, err := c.Translate(ctx, "mas", api.TranslateRequest{Queries: queries})
		wantCode(t, err, 422, api.CodeBatchTooLarge)
	})
	t.Run("body too large", func(t *testing.T) {
		_, err := c.MapKeywords(ctx, "mas", api.MapKeywordsRequest{
			KeywordsInput: api.KeywordsInput{Spec: strings.Repeat("x", serve.DefaultMaxBodyBytes+1)},
		})
		wantCode(t, err, 413, api.CodeBodyTooLarge)
	})
	t.Run("log frozen", func(t *testing.T) {
		// A frozen engine (no live log) rejects appends with 409.
		ds := datasets.MAS()
		entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
		for _, task := range ds.Tasks {
			q, err := sqlparse.Parse(task.Gold)
			if err != nil {
				t.Fatal(err)
			}
			entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
		}
		graph, err := qfg.Build(entries, fragment.NoConstOp)
		if err != nil {
			t.Fatal(err)
		}
		sys := templar.NewLive(ds.DB, embedding.New(), graph, templar.Options{LogJoin: true})
		ts := httptest.NewServer(serve.NewServer(sys, ds.Name, 2).Handler())
		t.Cleanup(ts.Close)
		fc, err := New(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		_, err = fc.AppendLog(ctx, "mas", api.LogAppendRequest{Queries: []api.LogEntry{
			{SQL: "SELECT a.name FROM author a"},
		}})
		wantCode(t, err, 409, api.CodeLogFrozen)
	})
	t.Run("log append validation items", func(t *testing.T) {
		_, err := c.AppendLog(ctx, "mas", api.LogAppendRequest{Queries: []api.LogEntry{
			{SQL: "SELECT a.name FROM author a"},
			{SQL: "SELEC nonsense"},
		}})
		e := wantCode(t, err, 422, api.CodeValidation)
		if len(e.Items) != 1 || e.Items[0].Index != 1 {
			t.Fatalf("items = %+v", e.Items)
		}
	})
}

// TestRoundTripCancellation: a canceled caller context aborts the call.
func TestRoundTripCancellation(t *testing.T) {
	c := liveServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Translate(ctx, "mas", api.TranslateRequest{Queries: []api.KeywordsInput{
		{Spec: "papers:select;Databases:where"},
	}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
