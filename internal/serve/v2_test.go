package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"templar/internal/datasets"
	"templar/internal/keyword"
	"templar/pkg/api"
)

// postRaw posts a body and returns status, headers and raw bytes.
func postRaw(t testing.TB, url string, body any) (int, http.Header, []byte) {
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
	return resp.StatusCode, resp.Header, raw
}

// wantProblem decodes a problem+json body and asserts status + code.
func wantProblem(t testing.TB, status int, hdr http.Header, raw []byte, wantStatus int, wantCode string) *api.Error {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status = %d, want %d (body %s)", status, wantStatus, raw)
	}
	if ct := hdr.Get("Content-Type"); ct != api.ProblemContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, api.ProblemContentType)
	}
	var e api.Error
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("undecodable problem body %q: %v", raw, err)
	}
	if e.Code != wantCode {
		t.Fatalf("code = %q, want %q (detail %q)", e.Code, wantCode, e.Detail)
	}
	if e.Status != wantStatus || e.Title == "" || e.Type == "" {
		t.Fatalf("incomplete problem document %+v", e)
	}
	return &e
}

func TestV2MapKeywords(t *testing.T) {
	ts := newTestServer(t)
	url := ts.URL + "/v2/mas/map-keywords"

	var resp api.MapKeywordsResponse
	if s := postJSON(t, url, api.MapKeywordsRequest{
		KeywordsInput: api.KeywordsInput{Spec: "papers:select;Databases:where"},
		TopK:          3,
	}, &resp); s != http.StatusOK {
		t.Fatalf("status = %d", s)
	}
	if n := len(resp.Configurations); n == 0 || n > 3 {
		t.Fatalf("got %d configurations, want 1..3", n)
	}
	if top := resp.Configurations[0]; len(top.Mappings) != 2 || top.Score <= 0 {
		t.Fatalf("malformed top configuration %+v", top)
	}

	// Per-request engine knobs: a tighter candidate cap yields no more
	// configurations than the default.
	var tight api.MapKeywordsResponse
	if s := postJSON(t, url, api.MapKeywordsRequest{
		KeywordsInput: api.KeywordsInput{Spec: "papers:select;Databases:where"},
		CallOptions:   api.CallOptions{MaxCandidates: 1, MaxConfigurations: 4},
	}, &tight); s != http.StatusOK {
		t.Fatalf("options status = %d", s)
	}
	if len(tight.Configurations) > 4 {
		t.Fatalf("max_configurations ignored: %d returned", len(tight.Configurations))
	}

	// Obscurity assertion: matching passes, mismatching is a structured
	// validation failure (the engine log is mined at no_const_op).
	if s := postJSON(t, url, api.MapKeywordsRequest{
		KeywordsInput: api.KeywordsInput{Spec: "papers:select"},
		CallOptions:   api.CallOptions{Obscurity: api.ObscurityNoConstOp},
	}, &resp); s != http.StatusOK {
		t.Fatalf("matching obscurity status = %d", s)
	}
	status, hdr, raw := postRaw(t, url, api.MapKeywordsRequest{
		KeywordsInput: api.KeywordsInput{Spec: "papers:select"},
		CallOptions:   api.CallOptions{Obscurity: api.ObscurityFull},
	})
	wantProblem(t, status, hdr, raw, http.StatusUnprocessableEntity, api.CodeValidation)
	status, hdr, raw = postRaw(t, url, api.MapKeywordsRequest{
		KeywordsInput: api.KeywordsInput{Spec: "papers:select"},
		CallOptions:   api.CallOptions{Obscurity: "sideways"},
	})
	wantProblem(t, status, hdr, raw, http.StatusUnprocessableEntity, api.CodeValidation)
}

func TestV2ErrorCodes(t *testing.T) {
	ts := newTestServer(t)

	for _, tc := range []struct {
		name       string
		path       string
		body       any
		wantStatus int
		wantCode   string
	}{
		{"unknown dataset", "/v2/nonesuch/map-keywords",
			api.MapKeywordsRequest{KeywordsInput: api.KeywordsInput{Spec: "papers:select"}},
			http.StatusNotFound, api.CodeUnknownDataset},
		{"no keywords", "/v2/mas/map-keywords", api.MapKeywordsRequest{},
			http.StatusUnprocessableEntity, api.CodeValidation},
		{"both forms", "/v2/mas/map-keywords", api.MapKeywordsRequest{KeywordsInput: api.KeywordsInput{
			Spec:     "papers:select",
			Keywords: []api.Keyword{{Text: "papers", Context: "select"}},
		}}, http.StatusUnprocessableEntity, api.CodeValidation},
		{"bad context", "/v2/mas/map-keywords", api.MapKeywordsRequest{KeywordsInput: api.KeywordsInput{
			Keywords: []api.Keyword{{Text: "papers", Context: "sideways"}},
		}}, http.StatusUnprocessableEntity, api.CodeValidation},
		{"unmappable keyword", "/v2/mas/map-keywords", api.MapKeywordsRequest{KeywordsInput: api.KeywordsInput{
			Keywords: []api.Keyword{{Text: "zzzqqqxxyy", Context: "where"}},
		}}, http.StatusUnprocessableEntity, api.CodeUnprocessable},
		{"no relations", "/v2/mas/infer-joins", api.InferJoinsRequest{},
			http.StatusUnprocessableEntity, api.CodeValidation},
		{"unknown relation", "/v2/mas/infer-joins", api.InferJoinsRequest{Relations: []string{"nonesuch"}},
			http.StatusUnprocessableEntity, api.CodeUnprocessable},
		{"empty batch", "/v2/mas/translate", api.TranslateRequest{},
			http.StatusUnprocessableEntity, api.CodeValidation},
		{"frozen log", "/v2/mas/log", api.LogAppendRequest{Queries: []api.LogEntry{
			{SQL: "SELECT a.name FROM author a"},
		}}, http.StatusConflict, api.CodeLogFrozen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, hdr, raw := postRaw(t, ts.URL+tc.path, tc.body)
			e := wantProblem(t, status, hdr, raw, tc.wantStatus, tc.wantCode)
			if e.RequestID == "" {
				t.Fatal("problem document carries no request_id")
			}
		})
	}

	// Malformed JSON is a 400 bad_request.
	resp, err := http.Post(ts.URL+"/v2/mas/map-keywords", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantProblem(t, resp.StatusCode, resp.Header, raw, http.StatusBadRequest, api.CodeBadRequest)
}

// TestV2BatchAndBodyLimits exercises the hardening caps: an oversized
// body is a 413 body_too_large, oversized batches are 422
// batch_too_large, on both v2 (problem+json) and v1 (legacy envelope).
func TestV2BatchAndBodyLimits(t *testing.T) {
	ds := datasets.MAS()
	srv := NewServer(buildLiveSystem(t, ds, keyword.Options{}), ds.Name, 2).
		WithLimits(2048, 3, 2)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Body cap: a ~4KiB spec blows the 2KiB limit.
	big := api.MapKeywordsRequest{KeywordsInput: api.KeywordsInput{Spec: strings.Repeat("x", 4096)}}
	status, hdr, raw := postRaw(t, ts.URL+"/v2/mas/map-keywords", big)
	wantProblem(t, status, hdr, raw, http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge)

	var legacy V1Error
	if s := postJSON(t, ts.URL+"/v1/map-keywords", big, &legacy); s != http.StatusRequestEntityTooLarge || legacy.Error == "" {
		t.Fatalf("v1 body cap: status %d, err %q", s, legacy.Error)
	}

	// Translate batch cap (3).
	batch := api.TranslateRequest{Queries: make([]api.KeywordsInput, 4)}
	for i := range batch.Queries {
		batch.Queries[i] = api.KeywordsInput{Spec: "papers:select"}
	}
	status, hdr, raw = postRaw(t, ts.URL+"/v2/mas/translate", batch)
	e := wantProblem(t, status, hdr, raw, http.StatusUnprocessableEntity, api.CodeBatchTooLarge)
	if !strings.Contains(e.Detail, "cap of 3") {
		t.Fatalf("detail %q does not name the cap", e.Detail)
	}
	if s := postJSON(t, ts.URL+"/v1/translate", batch, &legacy); s != http.StatusUnprocessableEntity {
		t.Fatalf("v1 translate cap: status %d", s)
	}

	// Log batch cap (2).
	appendReq := api.LogAppendRequest{Queries: []api.LogEntry{
		{SQL: "SELECT a.name FROM author a"},
		{SQL: "SELECT a.name FROM author a"},
		{SQL: "SELECT a.name FROM author a"},
	}}
	status, hdr, raw = postRaw(t, ts.URL+"/v2/mas/log", appendReq)
	wantProblem(t, status, hdr, raw, http.StatusUnprocessableEntity, api.CodeBatchTooLarge)

	// At the cap everything still works.
	var ar api.LogAppendResponse
	if s := postJSON(t, ts.URL+"/v2/mas/log", api.LogAppendRequest{Queries: appendReq.Queries[:2]}, &ar); s != http.StatusOK || ar.Appended != 2 {
		t.Fatalf("at-cap append: status %d, %+v", s, ar)
	}
}

// TestV2TranslatePerItemErrors: structured per-item errors ride inline
// with successful siblings, and a malformed log batch names the failing
// entry in items.
func TestV2TranslatePerItemErrors(t *testing.T) {
	ts := newTestServer(t)

	var resp api.TranslateResponse
	if s := postJSON(t, ts.URL+"/v2/mas/translate", api.TranslateRequest{Queries: []api.KeywordsInput{
		{Spec: "papers:select;Databases:where"},
		{Spec: "oops"},
		{Keywords: []api.Keyword{{Text: "papers", Context: "sideways"}}},
	}}, &resp); s != http.StatusOK {
		t.Fatalf("status = %d", s)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	if r := resp.Results[0]; r.Error != nil || r.SQL == "" || r.Config == nil || r.Path == nil {
		t.Fatalf("result 0 malformed: %+v", r)
	}
	for i, wantCode := range map[int]string{1: api.CodeValidation, 2: api.CodeValidation} {
		r := resp.Results[i]
		if r.Error == nil || r.SQL != "" {
			t.Fatalf("result %d should carry only an error: %+v", i, r)
		}
		if r.Error.Code != wantCode {
			t.Fatalf("result %d code = %q, want %q", i, r.Error.Code, wantCode)
		}
	}

	// Log append: the failing index is named in items.
	live := httptest.NewServer(NewServer(buildLiveSystem(t, datasets.MAS(), keyword.Options{}), "MAS", 2).Handler())
	t.Cleanup(live.Close)
	status, hdr, raw := postRaw(t, live.URL+"/v2/mas/log", api.LogAppendRequest{Queries: []api.LogEntry{
		{SQL: "SELECT a.name FROM author a"},
		{SQL: "SELEC nonsense"},
	}})
	e := wantProblem(t, status, hdr, raw, http.StatusUnprocessableEntity, api.CodeValidation)
	if len(e.Items) != 1 || e.Items[0].Index != 1 || e.Items[0].Detail == "" {
		t.Fatalf("items = %+v, want the failing entry at index 1", e.Items)
	}
}

// TestKeywordMetadataValidated: a JSON keyword's op and agg are copied
// into the SQL the mapper helps build, so anything but ParseSpec's
// operators and aggregates is a validation error at the boundary — never
// SQL text carrying it. Keywords strconv reads as ±Inf or NaN are words,
// so no response carries +Inf or NaN.
func TestKeywordMetadataValidated(t *testing.T) {
	ts := newTestServer(t)
	const injected = "x) from t; drop table u; --"
	badAgg := api.KeywordsInput{Keywords: []api.Keyword{{Text: "papers", Context: "select", Agg: injected}}}
	badOp := api.KeywordsInput{Keywords: []api.Keyword{
		{Text: "papers", Context: "select"},
		{Text: "after 2000", Context: "where", Op: "> 0 OR 1 ="},
	}}
	for name, in := range map[string]api.KeywordsInput{"bad agg": badAgg, "bad op": badOp} {
		status, hdr, raw := postRaw(t, ts.URL+"/v2/mas/map-keywords", api.MapKeywordsRequest{KeywordsInput: in})
		wantProblem(t, status, hdr, raw, http.StatusUnprocessableEntity, api.CodeValidation)
		var legacy V1Error
		if s := postJSON(t, ts.URL+"/v1/map-keywords", V1MapKeywordsRequest{KeywordsInput: in}, &legacy); s != http.StatusBadRequest || legacy.Error == "" {
			t.Fatalf("%s: v1 status %d, error %q", name, s, legacy.Error)
		}
	}

	var resp api.TranslateResponse
	if s := postJSON(t, ts.URL+"/v2/mas/translate", api.TranslateRequest{Queries: []api.KeywordsInput{
		badAgg,
		badOp,
		{Spec: "papers:select;inf:where:<"},
		{Spec: "papers:select;nan:where:!="},
		{Keywords: []api.Keyword{{Text: "papers", Context: "select", Agg: "count"}}},
	}}, &resp); s != http.StatusOK {
		t.Fatalf("status = %d", s)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	for i := range 2 {
		r := resp.Results[i]
		if r.Error == nil || r.SQL != "" || r.Rendered != "" {
			t.Fatalf("result %d should carry only an error: %+v", i, r)
		}
		if r.Error.Code != api.CodeValidation {
			t.Fatalf("result %d code = %q, want %q (%s)", i, r.Error.Code, api.CodeValidation, r.Error.Detail)
		}
	}
	for _, r := range resp.Results[2:4] {
		if r.Error != nil && strings.Contains(r.Error.Detail, "generated unparseable SQL") {
			t.Fatalf("non-finite keyword was mapped as a number: %s", r.Error.Detail)
		}
		if text := r.SQL + r.Rendered; strings.Contains(text, "+Inf") || strings.Contains(text, "-Inf") || strings.Contains(text, "NaN") {
			t.Fatalf("non-finite keyword reached SQL: %+v", r)
		}
	}
	for _, spec := range []string{"papers:select;inf:where:<", "papers:select;Infinity:where:>", "papers:select;nan:where:!="} {
		status, _, raw := postRaw(t, ts.URL+"/v2/mas/map-keywords", api.MapKeywordsRequest{KeywordsInput: api.KeywordsInput{Spec: spec}})
		if bytes.Contains(raw, []byte("+Inf")) || bytes.Contains(raw, []byte("-Inf")) || bytes.Contains(raw, []byte("NaN")) {
			t.Fatalf("%s: status %d, response %s", spec, status, raw)
		}
	}
	if r := resp.Results[4]; r.Error != nil || !strings.HasPrefix(r.SQL, "SELECT COUNT(") {
		t.Fatalf("lower-case agg should be accepted and upper-cased: %+v", r)
	}
}

// TestV2Datasets covers the public discovery endpoint.
func TestV2Datasets(t *testing.T) {
	ts := multiTenantServer(t, nil)
	var resp api.DatasetsResponse
	if s := getJSON(t, ts.URL+"/v2/datasets", &resp); s != http.StatusOK {
		t.Fatalf("status = %d", s)
	}
	if len(resp.Datasets) != 2 {
		t.Fatalf("datasets = %+v", resp.Datasets)
	}
	if d := resp.Datasets[0]; d.Name != "MAS" || !d.Default || d.Relations == 0 {
		t.Fatalf("MAS status %+v", d)
	}
}

// TestMiddleware covers the stack: request IDs are assigned (or echoed),
// the access log records one line per request, and /healthz reports the
// request counters.
func TestMiddleware(t *testing.T) {
	ds := datasets.MAS()
	var buf bytes.Buffer
	srv := NewServer(buildSystem(t, ds, keyword.Options{}), ds.Name, 2).
		WithAccessLog(log.New(&buf, "", 0))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Assigned ID.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	assigned := resp.Header.Get("X-Request-ID")
	if assigned == "" {
		t.Fatal("no X-Request-ID assigned")
	}

	// Echoed ID, and the problem document carries it.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/nonesuch/translate", strings.NewReader(`{"queries":[{"spec":"papers:select"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "test-trace-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "test-trace-42" {
		t.Fatalf("echoed id = %q", got)
	}
	var e api.Error
	if err := json.Unmarshal(raw, &e); err != nil || e.RequestID != "test-trace-42" {
		t.Fatalf("problem request_id = %q (err %v)", e.RequestID, err)
	}

	// Access log: one line per request, carrying the ids.
	logged := buf.String()
	if !strings.Contains(logged, "path=/healthz status=200") ||
		!strings.Contains(logged, "req="+assigned) ||
		!strings.Contains(logged, "req=test-trace-42") {
		t.Fatalf("access log missing entries:\n%s", logged)
	}

	// Metrics on /healthz: requests counted, the 404 counted as a client
	// error, nothing in flight afterwards.
	var h api.HealthResponse
	if s := getJSON(t, ts.URL+"/healthz", &h); s != http.StatusOK {
		t.Fatalf("health status %d", s)
	}
	if h.Metrics == nil || h.Metrics.Requests < 2 || h.Metrics.ClientErrors < 1 {
		t.Fatalf("metrics = %+v", h.Metrics)
	}
	if h.Metrics.InFlight != 0 { // health probes are exempt from admission accounting
		t.Fatalf("in_flight = %d, want 0 (the probe must not count itself)", h.Metrics.InFlight)
	}
}

// TestV1V2Parity is the committed adapter gate: on all three datasets,
// the v1 routes must answer bit-identically to v2 for successful
// map-keywords, infer-joins and translate calls (the frozen legacy
// contract differs only in error shape and list-parameter spelling), and
// the v1 adapter must accept both "top" and "top_k".
func TestV1V2Parity(t *testing.T) {
	for _, ds := range datasets.All() {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			srv := NewServer(buildSystem(t, ds, keyword.Options{}), ds.Name, 4)
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			base := ts.URL + "/v1/" + strings.ToLower(ds.Name)
			base2 := ts.URL + "/v2/" + strings.ToLower(ds.Name)

			checked := 0
			for _, task := range ds.Tasks {
				if checked == 10 {
					break
				}
				in := wireKeywords(task.Keywords)

				// map-keywords: v1 "top" and "top_k" both equal v2 "top_k".
				s1, _, raw1 := postRaw(t, base+"/map-keywords", V1MapKeywordsRequest{KeywordsInput: in, Top: 3})
				s1b, _, raw1b := postRaw(t, base+"/map-keywords", V1MapKeywordsRequest{KeywordsInput: in, TopK: 3})
				s2, _, raw2 := postRaw(t, base2+"/map-keywords", api.MapKeywordsRequest{KeywordsInput: in, TopK: 3})
				if s1 != s2 || s1 != s1b {
					t.Fatalf("%s: map statuses v1=%d v1(top_k)=%d v2=%d", task.ID, s1, s1b, s2)
				}
				if s1 == http.StatusOK {
					if !bytes.Equal(raw1, raw2) || !bytes.Equal(raw1b, raw2) {
						t.Fatalf("%s: map-keywords bodies diverged\nv1: %s\nv2: %s", task.ID, raw1, raw2)
					}
				}

				// translate: identical success bodies.
				s1, _, raw1 = postRaw(t, base+"/translate", api.TranslateRequest{Queries: []api.KeywordsInput{in}})
				s2, _, raw2 = postRaw(t, base2+"/translate", api.TranslateRequest{Queries: []api.KeywordsInput{in}})
				if s1 != s2 {
					t.Fatalf("%s: translate statuses v1=%d v2=%d", task.ID, s1, s2)
				}
				var v1r V1TranslateResponse
				if err := json.Unmarshal(raw1, &v1r); err != nil {
					t.Fatal(err)
				}
				if v1r.Results[0].Error == "" {
					if !bytes.Equal(raw1, raw2) {
						t.Fatalf("%s: translate bodies diverged\nv1: %s\nv2: %s", task.ID, raw1, raw2)
					}
					checked++

					// infer-joins over the winning path's base relations.
					var v2r api.TranslateResponse
					if err := json.Unmarshal(raw2, &v2r); err != nil {
						t.Fatal(err)
					}
					bag := map[string]bool{}
					var rels []string
					for _, inst := range v2r.Results[0].Path.Relations {
						name := inst
						if i := strings.IndexByte(name, '#'); i >= 0 {
							name = name[:i]
						}
						if !bag[name] {
							bag[name] = true
							rels = append(rels, name)
						}
					}
					s1, _, raw1 = postRaw(t, base+"/infer-joins", V1InferJoinsRequest{Relations: rels, TopK: 2})
					s1b, _, raw1b = postRaw(t, base+"/infer-joins", V1InferJoinsRequest{Relations: rels, Top: 2})
					s2, _, raw2 = postRaw(t, base2+"/infer-joins", api.InferJoinsRequest{Relations: rels, TopK: 2})
					if s1 != s2 || s1 != s1b {
						t.Fatalf("%s: infer statuses v1=%d v1(top)=%d v2=%d", task.ID, s1, s1b, s2)
					}
					if s1 == http.StatusOK && (!bytes.Equal(raw1, raw2) || !bytes.Equal(raw1b, raw2)) {
						t.Fatalf("%s: infer-joins bodies diverged\nv1: %s\nv2: %s", task.ID, raw1, raw2)
					}
				}
			}
			if checked == 0 {
				t.Fatal("no successful translations compared")
			}
		})
	}
}

// TestRoutesTable sanity-checks the registered surface the OpenAPI sync
// test builds on.
func TestRoutesTable(t *testing.T) {
	srv := NewServer(buildSystem(t, datasets.MAS(), keyword.Options{}), "MAS", 1)
	seen := map[string]bool{}
	for _, rt := range srv.Routes() {
		key := rt.Method + " " + rt.Pattern
		if seen[key] {
			t.Fatalf("duplicate route %s", key)
		}
		seen[key] = true
	}
	for _, want := range []string{
		"GET /healthz",
		"GET /v2/datasets",
		"POST /v2/{dataset}/map-keywords",
		"POST /v2/{dataset}/infer-joins",
		"POST /v2/{dataset}/translate",
		"POST /v2/{dataset}/log",
		"POST /v1/map-keywords",
		"POST /v1/{dataset}/translate",
		"DELETE /admin/datasets/{name}",
	} {
		if !seen[want] {
			t.Fatalf("route %s missing from table %v", want, seen)
		}
	}
}
