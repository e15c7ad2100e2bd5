package gateway

// Gateway routing tests: write-always-to-primary, eject/readmit moving
// only the ejected backend's tenants, the read staleness bound, and
// workload parity — a seeded read mix answered through the gateway
// bit-identically to the primary once the follower fleet has converged.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/repl"
	"templar/internal/serve"
	"templar/internal/sqlparse"
	"templar/internal/store"
	"templar/internal/templar"
	"templar/internal/wal"
	"templar/internal/workload"
	"templar/pkg/api"
)

// stubBackend is a scriptable fleet member: /healthz follows its down
// flag and configured per-dataset lag, every other route echoes the
// backend's index so tests can see where the gateway routed.
type stubBackend struct {
	idx  int
	down atomic.Bool
	lag  atomic.Pointer[map[string]int64]
}

func (s *stubBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		if s.down.Load() {
			http.Error(w, `{"status":"draining"}`, http.StatusServiceUnavailable)
			return
		}
		h := api.HealthResponse{Status: "ok"}
		if lag := s.lag.Load(); lag != nil {
			for ds, n := range *lag {
				h.Datasets = append(h.Datasets, api.DatasetStatus{
					Name: ds, Repl: &api.ReplicationStatus{Role: "follower", Lag: n},
				})
			}
		}
		json.NewEncoder(w).Encode(h)
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"backend": s.idx, "method": r.Method, "path": r.URL.Path})
}

// stubFleet builds n scriptable backends plus a gateway over them.
func stubFleet(t *testing.T, n int, opts Options) ([]*stubBackend, *Gateway) {
	t.Helper()
	stubs := make([]*stubBackend, n)
	bases := make([]string, n)
	for i := range stubs {
		stubs[i] = &stubBackend{idx: i}
		ts := httptest.NewServer(stubs[i])
		t.Cleanup(ts.Close)
		bases[i] = ts.URL
	}
	g, err := New(bases, opts)
	if err != nil {
		t.Fatal(err)
	}
	g.PollHealth(context.Background())
	return stubs, g
}

// route sends one request through the gateway handler and returns which
// backend index answered it.
func route(t *testing.T, g *Gateway, method, path string) int {
	t.Helper()
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s through gateway = %d: %s", method, path, rec.Code, rec.Body)
	}
	var echo struct {
		Backend int `json:"backend"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &echo); err != nil {
		t.Fatalf("echo decode: %v: %s", err, rec.Body)
	}
	return echo.Backend
}

// TestGatewayWritesAlwaysToPrimary: every mutating or primary-only route
// lands on backend 0, whatever the ring would say; reads are sticky.
func TestGatewayWritesAlwaysToPrimary(t *testing.T) {
	_, g := stubFleet(t, 3, Options{})
	for _, w := range []struct{ method, path string }{
		{http.MethodPost, "/v2/mas/log"},
		{http.MethodPost, "/v1/mas/log"},
		{http.MethodPost, "/v1/log"},
		{http.MethodGet, "/admin/datasets"},
		{http.MethodPut, "/admin/datasets/mas/limits"},
		{http.MethodGet, "/v2/mas/wal?from=0"},
		{http.MethodGet, "/v2/mas/snapshot"},
	} {
		if got := route(t, g, w.method, w.path); got != 0 {
			t.Fatalf("%s %s routed to backend %d, want primary", w.method, w.path, got)
		}
	}
	// Reads for one dataset stick to one backend across repeats.
	first := route(t, g, http.MethodPost, "/v2/mas/map-keywords")
	for i := 0; i < 10; i++ {
		if got := route(t, g, http.MethodPost, "/v2/mas/translate"); got != first {
			t.Fatalf("read for mas bounced from backend %d to %d", first, got)
		}
	}
}

// TestGatewayEjectReadmitMovesOnlyEjectedTenants mirrors the ring gate
// through the full health loop: killing one backend's health moves only
// the datasets it served; its recovery restores the original mapping.
func TestGatewayEjectReadmitMovesOnlyEjectedTenants(t *testing.T) {
	stubs, g := stubFleet(t, 3, Options{})
	names := make([]string, 40)
	for i := range names {
		names[i] = fmt.Sprintf("ds%02d", i)
	}
	owner := func(ds string) int {
		return route(t, g, http.MethodPost, "/v2/"+ds+"/map-keywords")
	}
	before := map[string]int{}
	victims := 0
	const ejected = 1
	for _, ds := range names {
		before[ds] = owner(ds)
		if before[ds] == ejected {
			victims++
		}
	}
	if victims == 0 {
		t.Fatal("backend 1 owned nothing; the test proved nothing")
	}

	stubs[ejected].down.Store(true)
	g.PollHealth(context.Background())
	for _, ds := range names {
		got := owner(ds)
		if before[ds] == ejected {
			if got == ejected {
				t.Fatalf("dataset %s still routed to the ejected backend", ds)
			}
		} else if got != before[ds] {
			t.Fatalf("dataset %s moved from healthy backend %d to %d during an unrelated ejection",
				ds, before[ds], got)
		}
	}

	stubs[ejected].down.Store(false)
	g.PollHealth(context.Background())
	for _, ds := range names {
		if got := owner(ds); got != before[ds] {
			t.Fatalf("dataset %s at backend %d after readmission, originally %d", ds, got, before[ds])
		}
	}
}

// TestGatewayHonorsStalenessBound: a follower lagging past -max-lag is
// skipped for that dataset's reads (they fall toward the primary) while
// its fresh datasets keep being served; /healthz reports the lag.
func TestGatewayHonorsStalenessBound(t *testing.T) {
	stubs, g := stubFleet(t, 3, Options{MaxLag: 2})
	// Both followers are stale on "mas" and fresh on everything else.
	for _, s := range stubs[1:] {
		lag := map[string]int64{"mas": 5}
		s.lag.Store(&lag)
	}
	g.PollHealth(context.Background())

	for i := 0; i < 5; i++ {
		if got := route(t, g, http.MethodPost, "/v2/mas/map-keywords"); got != 0 {
			t.Fatalf("stale-dataset read routed to follower %d, want primary", got)
		}
	}
	// A dataset nobody lags on still spreads per the ring.
	fresh := ""
	for i := 0; i < 40 && fresh == ""; i++ {
		ds := fmt.Sprintf("ds%02d", i)
		if route(t, g, http.MethodPost, "/v2/"+ds+"/map-keywords") != 0 {
			fresh = ds
		}
	}
	if fresh == "" {
		t.Fatal("no dataset routed to a follower despite zero lag")
	}

	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h GatewayHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("gateway healthz: %d %v %s", rec.Code, err, rec.Body)
	}
	if h.Status != "ok" || len(h.Backends) != 3 || !h.Backends[0].Primary || h.Backends[1].Lag["mas"] != 5 {
		t.Fatalf("fleet view = %+v", h)
	}
}

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
	g, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// realPair boots a WAL-armed primary and a converging follower replica
// for one dataset, both behind real listeners.
func realPair(t *testing.T, ds *datasets.Dataset) (pts, fts *httptest.Server, f *repl.Follower, tn *serve.Tenant) {
	t.Helper()
	storeDir, walDir := t.TempDir(), t.TempDir()
	path := filepath.Join(storeDir, store.Filename(ds.Name))
	if _, err := os.Stat(path); err != nil {
		if err := store.WriteFile(path, ds.Name, buildGraph(t, ds)); err != nil {
			t.Fatal(err)
		}
	}
	ar, err := store.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	live := qfg.NewLive(ar.Snapshot)
	sys := templar.NewLive(ds.DB, embedding.New(), live, templar.Options{LogJoin: true})
	tn = &serve.Tenant{Name: ds.Name, Sys: sys, Source: "store", StorePath: path, SnapshotSeq: ar.WalSeq}
	if _, err := serve.AttachWAL(tn, walDir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tn.WAL.Close() })
	server := func(tenant *serve.Tenant) *httptest.Server {
		reg := serve.NewRegistry()
		if err := reg.Add(tenant); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(serve.NewRegistryServer(reg, tenant.Name, 2, nil).Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	pts = server(tn)

	rc, err := repl.NewClient(pts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	flive, seq, err := repl.Bootstrap(context.Background(), rc, ds.Name)
	if err != nil {
		t.Fatal(err)
	}
	fsys := templar.NewLive(ds.DB, embedding.New(), flive, templar.Options{LogJoin: true})
	f = repl.NewFollower(rc, ds.Name, flive, seq, repl.FollowerOptions{
		PollInterval: 2 * time.Millisecond,
		Jitter:       func(d time.Duration) time.Duration { return d },
	})
	fts = server(&serve.Tenant{Name: ds.Name, Sys: fsys, Source: "replica", Follower: f, Primary: pts.URL})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return pts, fts, f, tn
}

// TestGatewayWorkloadParityWithDirect is the end-to-end gate: a seeded
// read workload answered through the gateway (primary + converged
// follower fleet) is bit-identical, request by request, to the same
// stream against the primary directly — and an append through the
// gateway lands on the primary's WAL.
func TestGatewayWorkloadParityWithDirect(t *testing.T) {
	ds := datasets.MAS()
	pts, fts, f, tn := realPair(t, ds)

	post := func(base, path string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}

	// Seed some history so the engines aren't pristine.
	for _, sql := range []string{"SELECT j.name FROM journal j", "SELECT a.name FROM author a"} {
		req, _ := json.Marshal(api.LogAppendRequest{Queries: []api.LogEntry{{SQL: sql}}})
		if s, raw := post(pts.URL, "/v2/mas/log", req); s != http.StatusOK {
			t.Fatalf("seed append = %d: %s", s, raw)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for f.AppliedSeq() < tn.WAL.LastSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d/%d", f.AppliedSeq(), tn.WAL.LastSeq())
		}
		time.Sleep(time.Millisecond)
	}

	g, err := New([]string{pts.URL, fts.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.PollHealth(context.Background())
	gts := httptest.NewServer(g)
	t.Cleanup(gts.Close)

	profiles, err := workload.MineProfiles([]string{ds.Name})
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mix{MapKeywords: 5, InferJoins: 3, Translate: 2} // read-only: parity needs a quiesced log
	gen, err := workload.NewGenerator(profiles, mix, 4242)
	if err != nil {
		t.Fatal(err)
	}
	followerServed := 0
	for i, req := range gen.Generate(60) {
		var path string
		var body any
		switch req.Op {
		case workload.OpMapKeywords:
			path, body = "/map-keywords", req.MapKeywords
		case workload.OpInferJoins:
			path, body = "/infer-joins", req.InferJoins
		case workload.OpTranslate:
			path, body = "/translate", req.Translate
		default:
			t.Fatalf("unexpected op %q in a read mix", req.Op)
		}
		raw, _ := json.Marshal(body)
		url := "/v2/" + strings.ToLower(req.Dataset) + path
		ds1, direct := post(pts.URL, url, raw)
		ds2, viaGW := post(gts.URL, url, raw)
		if ds1 != http.StatusOK || ds2 != http.StatusOK {
			t.Fatalf("request %d %s: direct=%d gateway=%d", i, url, ds1, ds2)
		}
		if !bytes.Equal(direct, viaGW) {
			t.Fatalf("request %d %s diverges through the gateway:\ndirect:  %s\ngateway: %s", i, url, direct, viaGW)
		}
	}
	// The ring sends mas reads somewhere fixed; if that somewhere is the
	// follower, parity above already proved replica reads. Either way the
	// append below must reach the primary's WAL, not the replica.
	if g.ring.Pick("mas", nil) == 1 {
		followerServed++
	}
	before := tn.WAL.LastSeq()
	req, _ := json.Marshal(api.LogAppendRequest{Queries: []api.LogEntry{{SQL: "SELECT d.name FROM domain d"}}})
	if s, raw := post(gts.URL, "/v2/mas/log", req); s != http.StatusOK {
		t.Fatalf("append through gateway = %d: %s", s, raw)
	}
	if got := tn.WAL.LastSeq(); got != before+1 {
		t.Fatalf("primary WAL seq = %d after gateway append, want %d", got, before+1)
	}
	t.Logf("parity held for 60 requests (follower in read path: %v)", followerServed == 1)
}
