package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
	"templar/internal/templar"
	"templar/pkg/api"
)

// buildGraph trains a QFG from a dataset's full gold-SQL log.
func buildGraph(t testing.TB, ds *datasets.Dataset) *qfg.Snapshot {
	t.Helper()
	entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
	for _, task := range ds.Tasks {
		q, err := sqlparse.Parse(task.Gold)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	graph, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	return graph
}

// buildSystem assembles a Templar instance over a benchmark dataset with
// the QFG trained from the full gold-SQL log.
func buildSystem(t testing.TB, ds *datasets.Dataset, opts keyword.Options) *templar.System {
	t.Helper()
	return templar.NewLive(ds.DB, embedding.New(), buildGraph(t, ds), templar.Options{Keyword: opts, LogJoin: true})
}

// buildLiveSystem is buildSystem over a live (appendable) log.
func buildLiveSystem(t testing.TB, ds *datasets.Dataset, opts keyword.Options) *templar.System {
	t.Helper()
	live := qfg.NewLive(buildGraph(t, ds))
	return templar.NewLive(ds.DB, embedding.New(), live, templar.Options{Keyword: opts, LogJoin: true})
}

func newTestServer(t testing.TB) *httptest.Server {
	t.Helper()
	ds := datasets.MAS()
	srv := NewServer(buildSystem(t, ds, keyword.Options{}), ds.Name, 4)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// postJSON posts a body and decodes the response into out, returning the
// status code.
func postJSON(t testing.TB, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("status %d: undecodable body %q: %v", resp.StatusCode, raw, err)
		}
	}
	return resp.StatusCode
}

func TestHealth(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Dataset != "MAS" || h.Relations == 0 || h.Workers != 4 {
		t.Fatalf("unexpected health %+v", h)
	}
}

func TestMapKeywordsHandler(t *testing.T) {
	ts := newTestServer(t)
	url := ts.URL + "/v1/map-keywords"

	var resp api.MapKeywordsResponse
	status := postJSON(t, url, V1MapKeywordsRequest{
		KeywordsInput: api.KeywordsInput{Spec: "papers:select;Databases:where"},
		Top:           3,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(resp.Configurations) == 0 || len(resp.Configurations) > 3 {
		t.Fatalf("got %d configurations, want 1..3", len(resp.Configurations))
	}
	top := resp.Configurations[0]
	if len(top.Mappings) != 2 || top.Score <= 0 {
		t.Fatalf("malformed top configuration %+v", top)
	}

	// The structured form must be equivalent to the spec form.
	var structured api.MapKeywordsResponse
	status = postJSON(t, url, V1MapKeywordsRequest{
		KeywordsInput: api.KeywordsInput{Keywords: []api.Keyword{
			{Text: "papers", Context: "select"},
			{Text: "Databases", Context: "where"},
		}},
		Top: 3,
	}, &structured)
	if status != http.StatusOK {
		t.Fatalf("structured status = %d", status)
	}
	if !reflect.DeepEqual(resp, structured) {
		t.Fatal("spec and structured keyword forms disagree")
	}
}

func TestMapKeywordsErrors(t *testing.T) {
	ts := newTestServer(t)
	url := ts.URL + "/v1/map-keywords"

	cases := []struct {
		name string
		body any
		want int
	}{
		{"empty", V1MapKeywordsRequest{}, http.StatusBadRequest},
		{"both forms", V1MapKeywordsRequest{KeywordsInput: api.KeywordsInput{
			Spec:     "papers:select",
			Keywords: []api.Keyword{{Text: "papers", Context: "select"}},
		}}, http.StatusBadRequest},
		{"bad context", V1MapKeywordsRequest{KeywordsInput: api.KeywordsInput{
			Keywords: []api.Keyword{{Text: "papers", Context: "sideways"}},
		}}, http.StatusBadRequest},
		{"unmappable keyword", V1MapKeywordsRequest{KeywordsInput: api.KeywordsInput{
			Keywords: []api.Keyword{{Text: "zzzqqqxxyy", Context: "where"}},
		}}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		var er V1Error
		if status := postJSON(t, url, tc.body, &er); status != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, status, tc.want)
		} else if er.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestInferJoinsHandler(t *testing.T) {
	ts := newTestServer(t)
	url := ts.URL + "/v1/infer-joins"

	var resp api.InferJoinsResponse
	if status := postJSON(t, url, V1InferJoinsRequest{Relations: []string{"publication", "domain"}, TopK: 3}, &resp); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(resp.Paths) == 0 {
		t.Fatal("no paths")
	}
	if p := resp.Paths[0]; len(p.Relations) < 2 || len(p.Edges) == 0 || p.Goodness <= 0 {
		t.Fatalf("malformed path %+v", p)
	}

	// Self-join bag: duplicated relation must fork an instance.
	var fork api.InferJoinsResponse
	if status := postJSON(t, url, V1InferJoinsRequest{Relations: []string{"author", "author", "publication"}}, &fork); status != http.StatusOK {
		t.Fatalf("self-join status = %d", status)
	}
	found := false
	for _, rel := range fork.Paths[0].Relations {
		if rel == "author#2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("self-join fork missing from %v", fork.Paths[0].Relations)
	}

	var er V1Error
	if status := postJSON(t, url, V1InferJoinsRequest{Relations: []string{"nonesuch"}}, &er); status != http.StatusUnprocessableEntity {
		t.Fatalf("unknown relation status = %d", status)
	}
	if status := postJSON(t, url, V1InferJoinsRequest{}, &er); status != http.StatusBadRequest {
		t.Fatalf("empty bag status = %d", status)
	}
}

func TestTranslateHandler(t *testing.T) {
	ts := newTestServer(t)

	var resp V1TranslateResponse
	status := postJSON(t, ts.URL+"/v1/translate", api.TranslateRequest{Queries: []api.KeywordsInput{
		{Spec: "papers:select;Databases:where"},
		{Spec: "oops"}, // malformed: per-query error, not batch failure
		{Spec: "authors:select;Data Mining:where"},
	}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	for _, i := range []int{0, 2} {
		r := resp.Results[i]
		if r.Error != "" || r.SQL == "" || r.Config == nil || r.Path == nil {
			t.Fatalf("result %d malformed: %+v", i, r)
		}
	}
	if resp.Results[1].Error == "" || resp.Results[1].SQL != "" {
		t.Fatalf("result 1 should carry only an error: %+v", resp.Results[1])
	}

	var er V1Error
	if status := postJSON(t, ts.URL+"/v1/translate", api.TranslateRequest{}, &er); status != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d", status)
	}
}

// TestConcurrentClients hammers one shared system from many goroutines
// across all three endpoints (run under -race to exercise the mapper cache,
// the cloned join graphs and the worker pool) and requires every client to
// observe the same answers.
func TestConcurrentClients(t *testing.T) {
	ts := newTestServer(t)

	var wantMap api.MapKeywordsResponse
	if s := postJSON(t, ts.URL+"/v1/map-keywords", V1MapKeywordsRequest{
		KeywordsInput: api.KeywordsInput{Spec: "papers:select;Databases:where"}, Top: 1,
	}, &wantMap); s != http.StatusOK {
		t.Fatalf("warmup map status = %d", s)
	}
	var wantTr V1TranslateResponse
	if s := postJSON(t, ts.URL+"/v1/translate", api.TranslateRequest{Queries: []api.KeywordsInput{
		{Spec: "papers:select;Databases:where"},
		{Spec: "authors:select;Data Mining:where"},
	}}, &wantTr); s != http.StatusOK {
		t.Fatalf("warmup translate status = %d", s)
	}

	const clients, rounds = 8, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (c + r) % 3 {
				case 0:
					var got api.MapKeywordsResponse
					if s := postJSON(t, ts.URL+"/v1/map-keywords", V1MapKeywordsRequest{
						KeywordsInput: api.KeywordsInput{Spec: "papers:select;Databases:where"}, Top: 1,
					}, &got); s != http.StatusOK {
						t.Errorf("client %d: map status %d", c, s)
						return
					} else if !reflect.DeepEqual(got, wantMap) {
						t.Errorf("client %d: map answer diverged", c)
						return
					}
				case 1:
					var got api.InferJoinsResponse
					if s := postJSON(t, ts.URL+"/v1/infer-joins", V1InferJoinsRequest{
						Relations: []string{"author", "author", "publication"},
					}, &got); s != http.StatusOK {
						t.Errorf("client %d: joins status %d", c, s)
						return
					}
				default:
					var got V1TranslateResponse
					if s := postJSON(t, ts.URL+"/v1/translate", api.TranslateRequest{Queries: []api.KeywordsInput{
						{Spec: "papers:select;Databases:where"},
						{Spec: "authors:select;Data Mining:where"},
					}}, &got); s != http.StatusOK {
						t.Errorf("client %d: translate status %d", c, s)
						return
					} else if !reflect.DeepEqual(got, wantTr) {
						t.Errorf("client %d: translate answer diverged", c)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestLogAppendHandler exercises the live-log path: appends through
// /v1/log must republish the snapshot (visible in /healthz) while a frozen
// system rejects appends with 409.
func TestLogAppendHandler(t *testing.T) {
	ds := datasets.MAS()
	srv := NewServer(buildLiveSystem(t, ds, keyword.Options{}), ds.Name, 4)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var before api.HealthResponse
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&before); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !before.LiveLog || before.LogQueries == 0 {
		t.Fatalf("live health = %+v", before)
	}

	var ar api.LogAppendResponse
	status := postJSON(t, ts.URL+"/v1/log", api.LogAppendRequest{Queries: []api.LogEntry{
		{SQL: "SELECT p.title FROM publication p WHERE p.citation_num > 50", Count: 3},
		{SQL: "SELECT a.name FROM author a"},
	}}, &ar)
	if status != http.StatusOK {
		t.Fatalf("append status = %d", status)
	}
	if ar.Appended != 2 || ar.LogQueries != before.LogQueries+4 {
		t.Fatalf("append response %+v (before %d queries)", ar, before.LogQueries)
	}

	// A session append blends cross-query evidence without error.
	status = postJSON(t, ts.URL+"/v1/log", api.LogAppendRequest{
		Queries: []api.LogEntry{
			{SQL: "SELECT j.name FROM journal j"},
			{SQL: "SELECT p.title FROM publication p"},
		},
		Session: true,
	}, &ar)
	if status != http.StatusOK {
		t.Fatalf("session append status = %d", status)
	}

	// Bad SQL rejects the whole batch atomically.
	var er V1Error
	status = postJSON(t, ts.URL+"/v1/log", api.LogAppendRequest{Queries: []api.LogEntry{
		{SQL: "SELECT a.name FROM author a"},
		{SQL: "SELEC nonsense"},
	}}, &er)
	if status != http.StatusBadRequest || er.Error == "" {
		t.Fatalf("bad SQL: status %d, err %q", status, er.Error)
	}
	var after api.HealthResponse
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after.LogQueries != ar.LogQueries {
		t.Fatalf("rejected batch changed the log: %d vs %d", after.LogQueries, ar.LogQueries)
	}

	// Frozen systems refuse appends.
	frozen := httptest.NewServer(NewServer(buildSystem(t, ds, keyword.Options{}), ds.Name, 2).Handler())
	t.Cleanup(frozen.Close)
	if status := postJSON(t, frozen.URL+"/v1/log", api.LogAppendRequest{Queries: []api.LogEntry{
		{SQL: "SELECT a.name FROM author a"},
	}}, &er); status != http.StatusConflict {
		t.Fatalf("frozen append status = %d, want 409", status)
	}
}

// TestLiveAppendsDuringTraffic hammers translate/map/log concurrently (run
// under -race): appends republish snapshots while readers translate, and
// nobody blocks or tears.
func TestLiveAppendsDuringTraffic(t *testing.T) {
	ds := datasets.MAS()
	srv := NewServer(buildLiveSystem(t, ds, keyword.Options{}), ds.Name, 4)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const clients, rounds = 6, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if (c+r)%2 == 0 {
					var got V1TranslateResponse
					if s := postJSON(t, ts.URL+"/v1/translate", api.TranslateRequest{Queries: []api.KeywordsInput{
						{Spec: "papers:select;Databases:where"},
					}}, &got); s != http.StatusOK {
						t.Errorf("client %d: translate status %d", c, s)
						return
					} else if got.Results[0].Error != "" {
						t.Errorf("client %d: translate error %q", c, got.Results[0].Error)
						return
					}
				} else {
					var ar api.LogAppendResponse
					if s := postJSON(t, ts.URL+"/v1/log", api.LogAppendRequest{Queries: []api.LogEntry{
						{SQL: "SELECT p.title FROM publication p WHERE p.year > 2015"},
					}}, &ar); s != http.StatusOK {
						t.Errorf("client %d: append status %d", c, s)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestBatchAfterAckServesAckedSnapshot pins "one snapshot per request":
// a translate batch sent right after an acked append must answer every
// item from the acked snapshot — none from the engine the append
// replaced — byte-equal to a fresh engine built over that snapshot, and
// map-keywords must score against the same snapshot.
func TestBatchAfterAckServesAckedSnapshot(t *testing.T) {
	ds := datasets.MAS()
	sys := buildLiveSystem(t, ds, keyword.Options{})
	ts := httptest.NewServer(NewServer(sys, ds.Name, 8).Handler())
	t.Cleanup(ts.Close)

	const items, rounds = 64, 16
	batch := api.TranslateRequest{Queries: make([]api.KeywordsInput, items)}
	appendReq := api.LogAppendRequest{Queries: make([]api.LogEntry, items)}
	for i := range batch.Queries {
		task := ds.Tasks[i%len(ds.Tasks)]
		batch.Queries[i] = wireKeywords(task.Keywords)
		appendReq.Queries[i] = api.LogEntry{SQL: task.Gold}
	}
	mapReq := api.MapKeywordsRequest{KeywordsInput: batch.Queries[0], TopK: 3}

	for r := 0; r < rounds; r++ {
		var ack api.LogAppendResponse
		if s := postJSON(t, ts.URL+"/v2/mas/log", appendReq, &ack); s != http.StatusOK {
			t.Fatalf("round %d: append status %d", r, s)
		}
		acked := sys.Live().CurrentSnapshot()
		if ack.LogQueries != acked.Queries() {
			t.Fatalf("round %d: ack reports %d queries, live log has %d", r, ack.LogQueries, acked.Queries())
		}
		var got struct{ Results []json.RawMessage }
		if s := postJSON(t, ts.URL+"/v2/mas/translate", batch, &got); s != http.StatusOK || len(got.Results) != items {
			t.Fatalf("round %d: translate status %d, %d results", r, s, len(got.Results))
		}
		var gotMap json.RawMessage
		if s := postJSON(t, ts.URL+"/v2/mas/map-keywords", mapReq, &gotMap); s != http.StatusOK {
			t.Fatalf("round %d: map-keywords status %d", r, s)
		}

		fresh := templar.NewLive(ds.DB, embedding.New(), acked, templar.Options{LogJoin: true})
		for i, in := range batch.Queries {
			kws, apiErr := decodeKeywords(in)
			if apiErr != nil {
				t.Fatal(apiErr)
			}
			var want api.TranslateResult
			if tr, err := fresh.Translate(context.Background(), kws, nil); err != nil {
				want.Error = engineError(err)
			} else {
				want = fromTranslation(tr)
			}
			assertSameJSON(t, want, got.Results[i])
		}
		kws, _ := decodeKeywords(mapReq.KeywordsInput)
		cfgs, err := fresh.MapKeywords(context.Background(), kws, &templar.CallOptions{TopK: mapReq.TopK})
		if err != nil {
			t.Fatal(err)
		}
		assertSameJSON(t, api.MapKeywordsResponse{Configurations: fromConfigurations(cfgs)}, gotMap)
	}
}

// TestCanceledRequestContext drives the handlers with an already-canceled
// request context: they must return promptly without writing a response
// (the client is gone) and without panicking.
func TestCanceledRequestContext(t *testing.T) {
	ds := datasets.MAS()
	srv := NewServer(buildSystem(t, ds, keyword.Options{}), ds.Name, 2)
	h := srv.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/map-keywords", V1MapKeywordsRequest{KeywordsInput: api.KeywordsInput{Spec: "papers:select"}}},
		{"/v1/translate", api.TranslateRequest{Queries: []api.KeywordsInput{{Spec: "papers:select;Databases:where"}}}},
	} {
		buf, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(buf)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Body.Len() != 0 {
			t.Errorf("%s: canceled request still wrote %q", tc.path, rec.Body.String())
		}
	}
}

// BenchmarkTranslateEndToEnd measures POST /v1/translate through the full
// handler stack (decode, pool, mapper, join inference, SQL construction,
// encode) with the snapshot-backed scoring path.
func BenchmarkTranslateEndToEnd(b *testing.B) {
	ds := datasets.MAS()
	srv := NewServer(buildSystem(b, ds, keyword.Options{}), ds.Name, 4)
	h := srv.Handler()
	body, err := json.Marshal(api.TranslateRequest{Queries: []api.KeywordsInput{
		{Spec: "papers:select;Databases:where"},
		{Spec: "authors:select;Data Mining:where"},
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/translate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
