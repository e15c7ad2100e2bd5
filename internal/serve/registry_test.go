package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/store"
	"templar/internal/templar"
	"templar/pkg/api"
)

// wireKeywords converts benchmark task keywords to the structured wire
// form, so route tests drive the same workloads the evaluation does.
func wireKeywords(kws []keyword.Keyword) api.KeywordsInput {
	out := make([]api.Keyword, len(kws))
	for i, kw := range kws {
		kj := api.Keyword{Text: kw.Text, Op: kw.Meta.Op, GroupBy: kw.Meta.GroupBy}
		switch kw.Meta.Context {
		case fragment.Select:
			kj.Context = "select"
		case fragment.From:
			kj.Context = "from"
		default:
			kj.Context = "where"
		}
		if len(kw.Meta.Aggs) > 0 {
			kj.Agg = kw.Meta.Aggs[0]
		}
		out[i] = kj
	}
	return api.KeywordsInput{Keywords: out}
}

// translatableTask picks the first benchmark task the dataset's own engine
// can translate, so route assertions never hinge on a hand-invented spec
// being mappable.
func translatableTask(t testing.TB, ds *datasets.Dataset) datasets.Task {
	t.Helper()
	sys := buildSystem(t, ds, keyword.Options{})
	for _, task := range ds.Tasks {
		if _, err := sys.Translate(context.Background(), task.Keywords, nil); err == nil {
			return task
		}
	}
	t.Fatalf("%s: no translatable task", ds.Name)
	return datasets.Task{}
}

func TestRegistry(t *testing.T) {
	ds := datasets.MAS()
	sys := buildSystem(t, ds, keyword.Options{})
	reg := NewRegistry()
	if err := reg.Add(&Tenant{Name: "MAS", Sys: sys, Source: "built"}); err != nil {
		t.Fatal(err)
	}
	if reg.Get("mas") == nil || reg.Get("MAS") == nil || reg.Get("Mas") == nil {
		t.Fatal("lookups must be case-insensitive")
	}
	if err := reg.Add(&Tenant{Name: "mas", Sys: sys}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := reg.Add(&Tenant{Name: " ", Sys: sys}); err == nil {
		t.Fatal("blank name accepted")
	}
	if err := reg.Add(&Tenant{Name: "x"}); err == nil {
		t.Fatal("nil system accepted")
	}
	if err := reg.Add(&Tenant{Name: "Yelp", Sys: sys}); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, 2)
	for _, tn := range reg.Tenants() {
		names = append(names, tn.Name)
	}
	if !reflect.DeepEqual(names, []string{"MAS", "Yelp"}) {
		t.Fatalf("Tenants() order = %v", names)
	}
	if reg.Len() != 2 {
		t.Fatalf("Len = %d", reg.Len())
	}
	if !reg.Remove("YELP") {
		t.Fatal("Remove missed a registered tenant")
	}
	if reg.Remove("yelp") {
		t.Fatal("Remove found a dropped tenant")
	}
	if reg.Get("yelp") != nil || reg.Len() != 1 {
		t.Fatal("tenant still visible after Remove")
	}
}

// multiTenantServer hosts MAS and Yelp with MAS as the default, Yelp built
// through the store round trip so the scoped routes also exercise a
// store-loaded engine.
func multiTenantServer(t testing.TB, loader Loader) *httptest.Server {
	t.Helper()
	reg := NewRegistry()
	mas := datasets.MAS()
	if err := reg.Add(&Tenant{Name: mas.Name, Sys: buildLiveSystem(t, mas, keyword.Options{}), Source: "built"}); err != nil {
		t.Fatal(err)
	}
	yelp := datasets.Yelp()
	packed := store.Encode(yelp.Name, buildGraph(t, yelp))
	ar, err := store.Decode(packed)
	if err != nil {
		t.Fatal(err)
	}
	live := qfg.NewLive(ar.Snapshot)
	sys := templar.NewLive(yelp.DB, embedding.New(), live, templar.Options{LogJoin: true})
	if err := reg.Add(&Tenant{Name: ar.Dataset, Sys: sys, Source: "store"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistryServer(reg, mas.Name, 4, loader).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestDatasetScopedRoutes(t *testing.T) {
	ts := multiTenantServer(t, nil)

	// Each dataset answers over its own schema and workload.
	var masResp, yelpResp V1TranslateResponse
	if s := postJSON(t, ts.URL+"/v1/mas/translate", api.TranslateRequest{Queries: []api.KeywordsInput{
		{Spec: "papers:select;Databases:where"},
	}}, &masResp); s != http.StatusOK {
		t.Fatalf("mas translate status = %d", s)
	}
	yelpTask := translatableTask(t, datasets.Yelp())
	if s := postJSON(t, ts.URL+"/v1/yelp/translate", api.TranslateRequest{Queries: []api.KeywordsInput{
		wireKeywords(yelpTask.Keywords),
	}}, &yelpResp); s != http.StatusOK {
		t.Fatalf("yelp translate status = %d", s)
	}
	if masResp.Results[0].Error != "" || !strings.Contains(masResp.Results[0].SQL, "publication") {
		t.Fatalf("mas result %+v", masResp.Results[0])
	}
	if yelpResp.Results[0].Error != "" || yelpResp.Results[0].SQL == "" {
		t.Fatalf("yelp result %+v (task %s)", yelpResp.Results[0], yelpTask.ID)
	}

	// The legacy unprefixed route answers exactly like the default scope.
	var legacy, scoped api.MapKeywordsResponse
	req := V1MapKeywordsRequest{KeywordsInput: api.KeywordsInput{Spec: "papers:select;Databases:where"}, Top: 2}
	if s := postJSON(t, ts.URL+"/v1/map-keywords", req, &legacy); s != http.StatusOK {
		t.Fatalf("legacy status = %d", s)
	}
	if s := postJSON(t, ts.URL+"/v1/MAS/map-keywords", req, &scoped); s != http.StatusOK {
		t.Fatalf("scoped status = %d", s)
	}
	if !reflect.DeepEqual(legacy, scoped) {
		t.Fatal("legacy and scoped routes diverged on the default dataset")
	}

	// Unknown datasets 404 with the JSON error envelope.
	var er V1Error
	if s := postJSON(t, ts.URL+"/v1/imdb/map-keywords", req, &er); s != http.StatusNotFound || er.Error == "" {
		t.Fatalf("unknown dataset: status %d, err %q", s, er.Error)
	}

	// Scoped log appends land on the named dataset only.
	var before, after api.HealthResponse
	getJSON(t, ts.URL+"/healthz", &before)
	var ar api.LogAppendResponse
	if s := postJSON(t, ts.URL+"/v1/yelp/log", api.LogAppendRequest{Queries: []api.LogEntry{
		{SQL: "SELECT b.name FROM business b WHERE b.city = 'Dallas'", Count: 2},
	}}, &ar); s != http.StatusOK {
		t.Fatalf("yelp append status = %d", s)
	}
	getJSON(t, ts.URL+"/healthz", &after)
	stats := func(h api.HealthResponse, name string) api.DatasetStatus {
		for _, d := range h.Datasets {
			if strings.EqualFold(d.Name, name) {
				return d
			}
		}
		t.Fatalf("dataset %s missing from health %+v", name, h)
		return api.DatasetStatus{}
	}
	if got, want := stats(after, "Yelp").LogQueries, stats(before, "Yelp").LogQueries+2; got != want {
		t.Fatalf("yelp log queries = %d, want %d", got, want)
	}
	if stats(after, "MAS").LogQueries != stats(before, "MAS").LogQueries {
		t.Fatal("appending to yelp changed the MAS log")
	}
}

// TestStoreLoadedEngineParity drives the same requests against a built
// engine and a store-round-tripped engine of the same dataset: the HTTP
// answers must be byte-identical.
func TestStoreLoadedEngineParity(t *testing.T) {
	ds := datasets.IMDB()
	builtSys := buildSystem(t, ds, keyword.Options{})
	ar, err := store.Decode(store.Encode(ds.Name, buildGraph(t, ds)))
	if err != nil {
		t.Fatal(err)
	}
	loadedSys := templar.NewLive(ds.DB, embedding.New(), ar.Snapshot, templar.Options{LogJoin: true})

	built := httptest.NewServer(NewServer(builtSys, ds.Name, 2).Handler())
	t.Cleanup(built.Close)
	loaded := httptest.NewServer(NewServer(loadedSys, ds.Name, 2).Handler())
	t.Cleanup(loaded.Close)

	checked := 0
	for _, task := range ds.Tasks {
		if checked == 25 {
			break
		}
		req := api.TranslateRequest{Queries: []api.KeywordsInput{wireKeywords(task.Keywords)}}
		var a, b V1TranslateResponse
		if s := postJSON(t, built.URL+"/v1/translate", req, &a); s != http.StatusOK {
			t.Fatalf("%s: built status %d", task.ID, s)
		}
		if s := postJSON(t, loaded.URL+"/v1/translate", req, &b); s != http.StatusOK {
			t.Fatalf("%s: loaded status %d", task.ID, s)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: built and store-loaded engines diverged:\nbuilt:  %+v\nloaded: %+v", task.ID, a, b)
		}
		if a.Results[0].Error == "" {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no successful translations compared")
	}
}

func TestAdminEndpoints(t *testing.T) {
	loads := 0
	loader := func(ctx context.Context, name string) (*Tenant, error) {
		for _, ds := range datasets.All() {
			if strings.EqualFold(ds.Name, name) {
				loads++
				return &Tenant{Name: ds.Name, Sys: buildSystem(t, ds, keyword.Options{}), Source: "built"}, nil
			}
		}
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	ts := multiTenantServer(t, loader)

	var list api.DatasetsResponse
	getJSON(t, ts.URL+"/admin/datasets", &list)
	if len(list.Datasets) != 2 {
		t.Fatalf("admin list %+v", list)
	}
	if d := list.Datasets[0]; d.Name != "MAS" || !d.Default || !d.LiveLog || d.LogQueries == 0 || d.Relations == 0 {
		t.Fatalf("MAS stats %+v", d)
	}
	if d := list.Datasets[1]; d.Name != "Yelp" || d.Default || d.Source != "store" {
		t.Fatalf("Yelp stats %+v", d)
	}

	// Load IMDB through the admin API, then query it.
	var created api.DatasetStatus
	if s := postJSON(t, ts.URL+"/admin/datasets", api.AdminLoadRequest{Name: "imdb"}, &created); s != http.StatusCreated {
		t.Fatalf("load status = %d", s)
	}
	if created.Name != "IMDB" || created.Source != "built" || loads != 1 {
		t.Fatalf("created %+v after %d loads", created, loads)
	}
	var tr V1TranslateResponse
	if s := postJSON(t, ts.URL+"/v1/imdb/translate", api.TranslateRequest{Queries: []api.KeywordsInput{
		wireKeywords(translatableTask(t, datasets.IMDB()).Keywords),
	}}, &tr); s != http.StatusOK || tr.Results[0].Error != "" {
		t.Fatalf("imdb after load: status %d, %+v", s, tr.Results)
	}

	var er V1Error
	if s := postJSON(t, ts.URL+"/admin/datasets", api.AdminLoadRequest{Name: "imdb"}, &er); s != http.StatusConflict {
		t.Fatalf("duplicate load status = %d", s)
	}
	if s := postJSON(t, ts.URL+"/admin/datasets", api.AdminLoadRequest{Name: "nonesuch"}, &er); s != http.StatusNotFound {
		t.Fatalf("unknown load status = %d", s)
	}
	if s := postJSON(t, ts.URL+"/admin/datasets", api.AdminLoadRequest{}, &er); s != http.StatusBadRequest {
		t.Fatalf("empty load status = %d", s)
	}

	// Remove IMDB; its routes 404 afterwards, and the default is protected.
	var rm api.AdminRemoveResponse
	if s := deleteJSON(t, ts.URL+"/admin/datasets/imdb", &rm); s != http.StatusOK || rm.Removed != "imdb" {
		t.Fatalf("remove: status %d, %+v", s, rm)
	}
	if s := deleteJSON(t, ts.URL+"/admin/datasets/imdb", &er); s != http.StatusNotFound {
		t.Fatalf("re-remove status = %d", s)
	}
	if s := postJSON(t, ts.URL+"/v1/imdb/translate", api.TranslateRequest{Queries: []api.KeywordsInput{
		{Spec: "movies:select"},
	}}, &er); s != http.StatusNotFound {
		t.Fatalf("removed dataset still answers: %d", s)
	}
	if s := deleteJSON(t, ts.URL+"/admin/datasets/mas", &er); s != http.StatusConflict {
		t.Fatalf("default removal status = %d", s)
	}

	// Without a loader, POST /admin/datasets is 501.
	noLoader := multiTenantServer(t, nil)
	if s := postJSON(t, noLoader.URL+"/admin/datasets", api.AdminLoadRequest{Name: "imdb"}, &er); s != http.StatusNotImplemented {
		t.Fatalf("no-loader status = %d", s)
	}
}

// TestMultiTenantConcurrent serves all three datasets from one process and
// hammers scoped translations, live appends and admin listings from many
// goroutines (run under -race): per-dataset answers must stay stable while
// a sibling dataset's log keeps growing.
func TestMultiTenantConcurrent(t *testing.T) {
	reg := NewRegistry()
	for _, ds := range datasets.All() {
		if err := reg.Add(&Tenant{Name: ds.Name, Sys: buildLiveSystem(t, ds, keyword.Options{}), Source: "built"}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewRegistryServer(reg, "MAS", 4, nil).Handler())
	t.Cleanup(ts.Close)

	specs := map[string]api.KeywordsInput{
		"mas":  {Spec: "papers:select;Databases:where"},
		"yelp": wireKeywords(translatableTask(t, datasets.Yelp()).Keywords),
		"imdb": wireKeywords(translatableTask(t, datasets.IMDB()).Keywords),
	}
	want := make(map[string]V1TranslateResponse)
	for name, in := range specs {
		var resp V1TranslateResponse
		if s := postJSON(t, ts.URL+"/v1/"+name+"/translate", api.TranslateRequest{Queries: []api.KeywordsInput{in}}, &resp); s != http.StatusOK {
			t.Fatalf("%s warmup status %d", name, s)
		}
		if resp.Results[0].Error != "" {
			t.Fatalf("%s warmup error %q", name, resp.Results[0].Error)
		}
		want[name] = resp
	}

	names := []string{"mas", "yelp", "imdb"}
	const clients, rounds = 9, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := names[c%len(names)]
			for r := 0; r < rounds; r++ {
				switch r % 3 {
				case 0:
					var got V1TranslateResponse
					if s := postJSON(t, ts.URL+"/v1/"+name+"/translate", api.TranslateRequest{
						Queries: []api.KeywordsInput{specs[name]},
					}, &got); s != http.StatusOK {
						t.Errorf("client %d: %s translate status %d", c, name, s)
						return
					} else if got.Results[0].Error != "" {
						t.Errorf("client %d: %s translate error %q", c, name, got.Results[0].Error)
						return
					} else if name != "yelp" && !reflect.DeepEqual(got, want[name]) {
						// Appends target yelp only, so every other dataset's
						// answers must stay bit-stable — tenant isolation.
						t.Errorf("client %d: %s answer diverged", c, name)
						return
					}
				case 1:
					// Grow the Yelp log while every dataset keeps answering.
					var ar api.LogAppendResponse
					if s := postJSON(t, ts.URL+"/v1/yelp/log", api.LogAppendRequest{Queries: []api.LogEntry{
						{SQL: "SELECT b.name FROM business b WHERE b.city = 'Dallas'"},
					}}, &ar); s != http.StatusOK {
						t.Errorf("client %d: append status %d", c, s)
						return
					}
				default:
					var list api.DatasetsResponse
					if s := getJSON(t, ts.URL+"/admin/datasets", &list); s != http.StatusOK || len(list.Datasets) != 3 {
						t.Errorf("client %d: admin list status %d (%d datasets)", c, s, len(list.Datasets))
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestAdminToken locks the admin routes behind a bearer token while the
// serving routes stay open.
func TestAdminToken(t *testing.T) {
	ds := datasets.MAS()
	reg := NewRegistry()
	if err := reg.Add(&Tenant{Name: ds.Name, Sys: buildSystem(t, ds, keyword.Options{}), Source: "built"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistryServer(reg, ds.Name, 2, nil).WithAdminToken("sesame").Handler())
	t.Cleanup(ts.Close)

	do := func(method, path, auth string) int {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader([]byte(`{"name":"yelp"}`)))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		method, path, auth string
		want               int
	}{
		{http.MethodGet, "/admin/datasets", "", http.StatusUnauthorized},
		{http.MethodGet, "/admin/datasets", "Bearer wrong", http.StatusUnauthorized},
		{http.MethodGet, "/admin/datasets", "Bearer sesame", http.StatusOK},
		{http.MethodPost, "/admin/datasets", "", http.StatusUnauthorized},
		{http.MethodPost, "/admin/datasets", "Bearer sesame", http.StatusNotImplemented}, // authorized, but no loader
		{http.MethodDelete, "/admin/datasets/yelp", "", http.StatusUnauthorized},
		{http.MethodDelete, "/admin/datasets/yelp", "Bearer sesame", http.StatusNotFound},
	} {
		if got := do(tc.method, tc.path, tc.auth); got != tc.want {
			t.Errorf("%s %s auth=%q: status %d, want %d", tc.method, tc.path, tc.auth, got, tc.want)
		}
	}
	// Serving routes need no token.
	var resp api.MapKeywordsResponse
	if s := postJSON(t, ts.URL+"/v1/map-keywords", V1MapKeywordsRequest{
		KeywordsInput: api.KeywordsInput{Spec: "papers:select;Databases:where"}, Top: 1,
	}, &resp); s != http.StatusOK {
		t.Errorf("serving route demanded auth: status %d", s)
	}
}

// TestTenantIsolation floods one dataset's log with appends and asserts
// the sibling datasets' translations stay bit-identical: tenants share a
// process, a worker pool and nothing else.
func TestTenantIsolation(t *testing.T) {
	reg := NewRegistry()
	mas, yelp := datasets.MAS(), datasets.Yelp()
	for _, ds := range []*datasets.Dataset{mas, yelp} {
		if err := reg.Add(&Tenant{Name: ds.Name, Sys: buildLiveSystem(t, ds, keyword.Options{}), Source: "built"}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewRegistryServer(reg, mas.Name, 2, nil).Handler())
	t.Cleanup(ts.Close)

	var before V1TranslateResponse
	req := api.TranslateRequest{Queries: []api.KeywordsInput{{Spec: "papers:select;Databases:where"}}}
	if s := postJSON(t, ts.URL+"/v1/mas/translate", req, &before); s != http.StatusOK {
		t.Fatalf("warmup status %d", s)
	}
	var ar api.LogAppendResponse
	for i := 0; i < 25; i++ {
		if s := postJSON(t, ts.URL+"/v1/yelp/log", api.LogAppendRequest{Queries: []api.LogEntry{
			{SQL: "SELECT b.name FROM business b WHERE b.city = 'Dallas'", Count: 3},
		}}, &ar); s != http.StatusOK {
			t.Fatalf("append %d status %d", i, s)
		}
	}
	var after V1TranslateResponse
	if s := postJSON(t, ts.URL+"/v1/mas/translate", req, &after); s != http.StatusOK {
		t.Fatalf("post-append status %d", s)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("appends to the Yelp log changed a MAS translation")
	}
}

// getJSON fetches a URL and decodes the JSON response, returning the status.
func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

// deleteJSON issues a DELETE and decodes the JSON response.
func deleteJSON(t testing.TB, url string, out any) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("DELETE %s: %v", url, err)
	}
	return resp.StatusCode
}
