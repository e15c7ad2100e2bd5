// Multitenant: pack two datasets' Query Fragment Graphs into a snapshot
// store, cold-start a multi-tenant server from the packed files (no SQL-log
// re-mining), and query both datasets over one HTTP listener — the
// serve-many-schemas-from-one-fleet shape of the serving layer.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/serve"
	"templar/internal/sqlparse"
	"templar/internal/store"
	"templar/internal/templar"
	"templar/pkg/api"
)

func main() {
	// 1. Pack: mine each dataset's gold-SQL log once and persist the
	// compiled snapshot — the build-time step a deployment pipeline runs.
	dir, err := os.MkdirTemp("", "templar-store-*")
	must(err)
	defer os.RemoveAll(dir)
	for _, ds := range []*datasets.Dataset{datasets.MAS(), datasets.Yelp()} {
		entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
		for _, t := range ds.Tasks {
			q, err := sqlparse.Parse(t.Gold)
			must(err)
			entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
		}
		graph, err := qfg.Build(entries, fragment.NoConstOp)
		must(err)
		path := filepath.Join(dir, store.Filename(ds.Name))
		must(store.WriteFile(path, ds.Name, graph))
		fmt.Printf("packed %s → %s\n", ds.Name, filepath.Base(path))
	}

	// 2. Serve from the store: each engine cold-starts from one file read.
	// NewLive publishes the loaded snapshot as is; live log appends splice
	// new snapshots from it, so they keep working after a store boot.
	reg := serve.NewRegistry()
	for _, ds := range []*datasets.Dataset{datasets.MAS(), datasets.Yelp()} {
		start := time.Now()
		ar, err := store.ReadFile(filepath.Join(dir, store.Filename(ds.Name)))
		must(err)
		sys := templar.NewLive(ds.DB, embedding.New(), qfg.NewLive(ar.Snapshot), templar.Options{LogJoin: true})
		must(reg.Add(&serve.Tenant{Name: ar.Dataset, Sys: sys, Source: "store", LoadTime: time.Since(start)}))
		fmt.Printf("loaded %s from store in %s (%d logged queries)\n",
			ar.Dataset, time.Since(start).Round(time.Microsecond), ar.Snapshot.Queries())
	}
	srv := httptest.NewServer(serve.NewRegistryServer(reg, "MAS", 4, nil).Handler())
	defer srv.Close()

	// 3. Query both datasets through their scoped routes.
	translate(srv.URL+"/v2/mas/translate", `{"queries":[{"spec":"papers:select;Databases:where"}]}`)
	translate(srv.URL+"/v2/yelp/translate", `{"queries":[{"keywords":[
		{"text":"businesses","context":"select"},
		{"text":"Scottsdale","context":"where"}]}]}`)

	// 4. The admin view shows both engines side by side.
	resp, err := http.Get(srv.URL + "/admin/datasets")
	must(err)
	defer resp.Body.Close()
	var admin api.DatasetsResponse
	must(json.NewDecoder(resp.Body).Decode(&admin))
	for _, d := range admin.Datasets {
		fmt.Printf("admin: %-4s source=%s queries=%d fragments=%d default=%v\n",
			d.Name, d.Source, d.LogQueries, d.LogFragments, d.Default)
	}
}

// translate posts one batch and prints the top SQL per query.
func translate(url, body string) {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	must(err)
	defer resp.Body.Close()
	var tr api.TranslateResponse
	must(json.NewDecoder(resp.Body).Decode(&tr))
	for _, r := range tr.Results {
		if r.Error != nil {
			fmt.Printf("%s → error: %s\n", url, r.Error)
			continue
		}
		fmt.Printf("%s →\n  %s\n", url, r.Rendered)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
