package repl_test

// Replication integration tests: the tail/snapshot endpoints over real
// HTTP, follower convergence with byte-identical reads, append
// redirection to the primary, and the fault-injection battery the
// design promises to survive — unreachable primary (jittered backoff,
// stale-but-consistent reads), compacted-away tail position (typed
// refusal, snapshot re-bootstrap) and a bit-flipped record on the wire
// (checksum reject, re-fetch, never applied). The long soak with the
// golden-corpus gate lives in internal/workload.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
	"templar/pkg/api"
	"templar/pkg/client"
)

func buildGraph(t testing.TB, ds *datasets.Dataset) *qfg.Graph {
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

// primaryTenant assembles a WAL-armed tenant the way templar-serve does.
func primaryTenant(t testing.TB, ds *datasets.Dataset, storeDir, walDir string) *serve.Tenant {
	t.Helper()
	path := filepath.Join(storeDir, store.Filename(ds.Name))
	if _, err := os.Stat(path); err != nil {
		if err := store.WriteFile(path, ds.Name, buildGraph(t, ds).Snapshot(nil)); err != nil {
			t.Fatal(err)
		}
	}
	ar, err := store.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	live := qfg.NewLiveFromSnapshot(ar.Snapshot)
	sys := templar.NewLive(ds.DB, embedding.New(), live, templar.Options{LogJoin: true})
	tn := &serve.Tenant{Name: ds.Name, Sys: sys, Source: "store", StorePath: path, SnapshotSeq: ar.WalSeq}
	if _, err := serve.AttachWAL(tn, walDir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tn.WAL.Close() })
	return tn
}

func tenantServer(t testing.TB, tn *serve.Tenant) *httptest.Server {
	t.Helper()
	reg := serve.NewRegistry()
	if err := reg.Add(tn); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewRegistryServer(reg, tn.Name, 2, nil).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// fastOpts makes a follower poll aggressively with a deterministic
// schedule, so tests converge in milliseconds.
func fastOpts() repl.FollowerOptions {
	return repl.FollowerOptions{
		PollInterval: 2 * time.Millisecond,
		Backoff:      4 * time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
		Jitter:       func(d time.Duration) time.Duration { return d },
	}
}

// startFollower bootstraps a follower replica from primaryURL, mounts it
// behind its own read-only server, and starts the tail loop.
func startFollower(t testing.TB, ds *datasets.Dataset, primaryURL string, opts repl.FollowerOptions) (*repl.Follower, *httptest.Server) {
	t.Helper()
	rc, err := repl.NewClient(primaryURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	live, seq, err := repl.Bootstrap(context.Background(), rc, ds.Name)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	sys := templar.NewLive(ds.DB, embedding.New(), live, templar.Options{LogJoin: true})
	f := repl.NewFollower(rc, ds.Name, live, seq, opts)
	tn := &serve.Tenant{Name: ds.Name, Sys: sys, Source: "replica", Follower: f, Primary: primaryURL}
	fts := tenantServer(t, tn)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return f, fts
}

func postJSON(t testing.TB, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode
}

// appendBatch posts one batch append of the given SQL strings.
func appendBatch(t testing.TB, baseURL, dataset string, sqls ...string) api.LogAppendResponse {
	t.Helper()
	req := api.LogAppendRequest{}
	for _, s := range sqls {
		req.Queries = append(req.Queries, api.LogEntry{SQL: s})
	}
	var resp api.LogAppendResponse
	if s := postJSON(t, baseURL+"/v2/"+strings.ToLower(dataset)+"/log", req, &resp); s != http.StatusOK {
		t.Fatalf("append status = %d", s)
	}
	return resp
}

func waitApplied(t testing.TB, f *repl.Follower, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for f.AppliedSeq() < want {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, want %d (status %+v)", f.AppliedSeq(), want, f.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

// probe answers a fixed read battery against base and returns the
// concatenated raw response bodies — the byte-identity unit.
func probe(t testing.TB, base, dataset string) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, call := range []struct{ path, body string }{
		{"/v2/" + dataset + "/map-keywords", `{"spec":"papers:select;Databases:where","top_k":3}`},
		{"/v2/" + dataset + "/infer-joins", `{"relations":["publication","domain"],"top_k":3}`},
		{"/v2/" + dataset + "/translate", `{"queries":[{"spec":"papers:select;Databases:where"}]}`},
	} {
		resp, err := http.Post(base+call.path, "application/json", strings.NewReader(call.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe %s = %d: %s", call.path, resp.StatusCode, raw)
		}
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

var masAppends = []string{
	"SELECT j.name FROM journal j",
	"SELECT p.title FROM publication p",
	"SELECT a.name FROM author a",
	"SELECT o.name FROM organization o",
	"SELECT c.name FROM conference c",
	"SELECT d.name FROM domain d",
}

// TestFollowerConvergesByteIdentical is the happy path end to end: a
// follower bootstraps mid-history, tails the rest, reaches the primary's
// sequence, answers the read battery byte-identically, and reports its
// position on /healthz while refusing to look like an appendable tenant.
func TestFollowerConvergesByteIdentical(t *testing.T) {
	ds := datasets.MAS()
	tn := primaryTenant(t, ds, t.TempDir(), t.TempDir())
	pts := tenantServer(t, tn)

	appendBatch(t, pts.URL, ds.Name, masAppends[0])
	appendBatch(t, pts.URL, ds.Name, masAppends[1], masAppends[2])

	f, fts := startFollower(t, ds, pts.URL, fastOpts())
	if got := f.AppliedSeq(); got != 2 {
		t.Fatalf("bootstrap watermark = %d, want 2 (snapshot captured at the primary's current seq)", got)
	}

	appendBatch(t, pts.URL, ds.Name, masAppends[3])
	appendBatch(t, pts.URL, ds.Name, masAppends[4], masAppends[5])
	waitApplied(t, f, 4)

	want := probe(t, pts.URL, "mas")
	if got := probe(t, fts.URL, "mas"); !bytes.Equal(got, want) {
		t.Fatalf("follower answers diverge from primary:\nprimary: %s\nfollower: %s", want, got)
	}

	var health api.HealthResponse
	resp, err := http.Get(fts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Repl == nil || health.Repl.Role != "follower" || health.Repl.LastAppliedSeq != 4 ||
		health.Repl.Lag != 0 || health.Repl.Primary != pts.URL {
		t.Fatalf("follower healthz repl = %+v", health.Repl)
	}
	if health.LiveLog {
		t.Fatal("follower advertises live_log: clients would append to a replica")
	}
}

// TestTailEndpointContract pins the stream endpoint's HTTP surface: wire
// frames identical to the WAL codec, the last-seq header, and the typed
// refusals (422 malformed from, 409 ahead-of-log, 501 on a follower).
func TestTailEndpointContract(t *testing.T) {
	ds := datasets.MAS()
	tn := primaryTenant(t, ds, t.TempDir(), t.TempDir())
	pts := tenantServer(t, tn)
	appendBatch(t, pts.URL, ds.Name, masAppends[0])
	appendBatch(t, pts.URL, ds.Name, masAppends[1])

	resp, err := http.Get(pts.URL + "/v2/mas/wal?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tail status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != repl.TailContentType {
		t.Fatalf("tail content type = %q", ct)
	}
	if last := resp.Header.Get(repl.HeaderLastSeq); last != "2" {
		t.Fatalf("%s = %q, want 2", repl.HeaderLastSeq, last)
	}
	rr := wal.NewRecordReader(resp.Body)
	var seqs []uint64
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, rec.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("streamed seqs = %v", seqs)
	}

	status := func(url string) (int, *api.Error) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		e := &api.Error{}
		json.NewDecoder(resp.Body).Decode(e)
		return resp.StatusCode, e
	}
	if s, e := status(pts.URL + "/v2/mas/wal?from=99"); s != http.StatusConflict || e.Code != api.CodeConflict {
		t.Fatalf("ahead-of-log tail: %d %+v", s, e)
	}
	if s, e := status(pts.URL + "/v2/mas/wal?from=bogus"); s != http.StatusUnprocessableEntity || e.Code != api.CodeValidation {
		t.Fatalf("malformed from: %d %+v", s, e)
	}

	_, fts := startFollower(t, ds, pts.URL, fastOpts())
	if s, e := status(fts.URL + "/v2/mas/wal?from=0"); s != http.StatusNotImplemented || e.Code != api.CodeNotConfigured {
		t.Fatalf("tail against a follower: %d %+v", s, e)
	}
}

// TestAppendRedirectsToPrimary pins the write path on a replica: raw
// clients see 307 + Location + a not_primary problem (v2) or the legacy
// string envelope (v1); the SDK follows the hop and lands the append on
// the primary.
func TestAppendRedirectsToPrimary(t *testing.T) {
	ds := datasets.MAS()
	tn := primaryTenant(t, ds, t.TempDir(), t.TempDir())
	pts := tenantServer(t, tn)
	appendBatch(t, pts.URL, ds.Name, masAppends[0])
	f, fts := startFollower(t, ds, pts.URL, fastOpts())

	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	body := `{"queries":[{"sql":"SELECT p.title FROM publication p"}]}`
	resp, err := noFollow.Post(fts.URL+"/v2/mas/log", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("v2 append on follower = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != pts.URL+"/v2/mas/log" {
		t.Fatalf("Location = %q, want %q", loc, pts.URL+"/v2/mas/log")
	}
	e := &api.Error{}
	if err := json.Unmarshal(raw, e); err != nil || e.Code != api.CodeNotPrimary {
		t.Fatalf("v2 redirect body: %v %s", err, raw)
	}

	resp, err = noFollow.Post(fts.URL+"/v1/mas/log", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var legacy struct {
		Error string `json:"error"`
	}
	if resp.StatusCode != http.StatusTemporaryRedirect || json.Unmarshal(raw, &legacy) != nil || legacy.Error == "" {
		t.Fatalf("v1 redirect: %d %s", resp.StatusCode, raw)
	}

	// The SDK follows the hop: the append lands on the primary and is
	// acknowledged with the primary's next WAL sequence.
	sdk, err := client.New(fts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := sdk.AppendLog(context.Background(), "mas",
		api.LogAppendRequest{Queries: []api.LogEntry{{SQL: masAppends[1]}}})
	if err != nil {
		t.Fatalf("SDK append via follower: %v", err)
	}
	if ack.WALSeq != 2 || sdk.Redirects() != 1 {
		t.Fatalf("ack seq = %d redirects = %d, want 2 and 1", ack.WALSeq, sdk.Redirects())
	}
	if tn.WAL.LastSeq() != 2 {
		t.Fatalf("primary seq = %d, want 2", tn.WAL.LastSeq())
	}
	waitApplied(t, f, 2)
}

// TestFollowerBackoffWhenPrimaryUnreachable is fault injection (a): the
// primary vanishes, the follower retries on the doubling backoff
// schedule (jitter pinned to identity) and keeps serving reads at its
// applied sequence the whole time.
func TestFollowerBackoffWhenPrimaryUnreachable(t *testing.T) {
	ds := datasets.MAS()
	tn := primaryTenant(t, ds, t.TempDir(), t.TempDir())
	pts := tenantServer(t, tn)
	appendBatch(t, pts.URL, ds.Name, masAppends[0])
	appendBatch(t, pts.URL, ds.Name, masAppends[1])

	var mu sync.Mutex
	var delays []time.Duration
	opts := fastOpts()
	opts.Sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		delays = append(delays, d)
		mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
			return nil
		}
	}
	f, fts := startFollower(t, ds, pts.URL, opts)
	waitApplied(t, f, 2)
	before := probe(t, fts.URL, "mas")

	// Discard idle-poll sleeps from the healthy phase before the primary
	// goes: a poll failing on the close records its first backoff sleep
	// at once, and a truncation after the close could drop it.
	mu.Lock()
	delays = delays[:0]
	mu.Unlock()
	pts.CloseClientConnections()
	pts.Close() // the primary is gone

	// A poll that succeeded just before the close may still record its
	// idle sleep after the truncation above; only backoff sleeps (anything
	// other than the poll interval) belong to the retry schedule.
	retries := func() []time.Duration {
		mu.Lock()
		defer mu.Unlock()
		out := make([]time.Duration, 0, len(delays))
		for _, d := range delays {
			if d != opts.PollInterval {
				out = append(out, d)
			}
		}
		return out
	}
	deadline := time.Now().Add(15 * time.Second)
	for len(retries()) < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d retry sleeps recorded", len(retries()))
		}
		time.Sleep(time.Millisecond)
	}
	got := retries()[:4]
	want := []time.Duration{4, 8, 16, 20} // ms: doubling from Backoff, capped at MaxBackoff
	for i, d := range got {
		if d != want[i]*time.Millisecond {
			t.Fatalf("backoff schedule = %v, want %v ms", got, want)
		}
	}
	if st := f.Status(); st.LastError == "" || st.LastAppliedSeq != 2 {
		t.Fatalf("status after primary loss = %+v", st)
	}
	// Stale but consistent: the replica still answers, byte-identically to
	// what it served before the primary vanished.
	if after := probe(t, fts.URL, "mas"); !bytes.Equal(before, after) {
		t.Fatal("replica answers changed while the primary was unreachable")
	}
}

// TestFollowerGapReBootstraps is fault injection (b): compaction on the
// primary passes the follower's position; the tail poll is refused with
// the typed 410 and the follower recovers through a fresh snapshot
// bootstrap, converging to byte-identical answers.
func TestFollowerGapReBootstraps(t *testing.T) {
	ds := datasets.MAS()
	tn := primaryTenant(t, ds, t.TempDir(), t.TempDir())
	pts := tenantServer(t, tn)
	appendBatch(t, pts.URL, ds.Name, masAppends[0])
	appendBatch(t, pts.URL, ds.Name, masAppends[1])

	// Bootstrap at seq 2 but do NOT start the loop yet: the follower must
	// fall behind a whole compaction first.
	rc, err := repl.NewClient(pts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	live, seq, err := repl.Bootstrap(context.Background(), rc, ds.Name)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("bootstrap seq = %d", seq)
	}

	// The direct tail at a compacted-away position is the typed gap.
	appendBatch(t, pts.URL, ds.Name, masAppends[2])
	if _, err := tn.WAL.StartCompaction(); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteFileAt(tn.StorePath, tn.Name, tn.Sys.Live().CurrentSnapshot(), tn.WAL.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if err := tn.WAL.FinishCompaction(); err != nil {
		t.Fatal(err)
	}
	appendBatch(t, pts.URL, ds.Name, masAppends[3])
	if _, err := rc.Tail(context.Background(), "mas", 1); !errors.Is(err, wal.ErrGap) {
		t.Fatalf("tail into compacted range: %v, want wal.ErrGap", err)
	}

	sys := templar.NewLive(ds.DB, embedding.New(), live, templar.Options{LogJoin: true})
	f := repl.NewFollower(rc, ds.Name, live, seq, fastOpts())
	tnF := &serve.Tenant{Name: ds.Name, Sys: sys, Source: "replica", Follower: f, Primary: pts.URL}
	fts := tenantServer(t, tnF)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })

	waitApplied(t, f, 4)
	if st := f.Status(); st.Bootstraps != 2 {
		t.Fatalf("bootstraps = %d, want 2 (initial + gap recovery)", st.Bootstraps)
	}
	if want, got := probe(t, pts.URL, "mas"), probe(t, fts.URL, "mas"); !bytes.Equal(want, got) {
		t.Fatal("post-re-bootstrap answers diverge from primary")
	}
}

// corruptingProxy forwards requests to the primary verbatim, except that
// it flips one byte in the first `budget` non-empty /wal stream bodies.
type corruptingProxy struct {
	target string
	budget atomic.Int64
	hits   atomic.Int64
}

func (p *corruptingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	resp, err := http.Get(p.target + r.URL.RequestURI())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if strings.Contains(r.URL.Path, "/wal") && len(body) > 8 && p.budget.Load() > 0 && p.budget.Add(-1) >= 0 {
		body[len(body)/2] ^= 0x40 // one flipped bit mid-stream
		p.hits.Add(1)
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Del("Content-Length")
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// TestFollowerRejectsBitFlippedStream is fault injection (c): a damaged
// record on the wire is rejected whole by the CRC — nothing from the
// batch is applied — and the re-fetch converges once the wire heals,
// byte-identically to the primary.
func TestFollowerRejectsBitFlippedStream(t *testing.T) {
	ds := datasets.MAS()
	tn := primaryTenant(t, ds, t.TempDir(), t.TempDir())
	pts := tenantServer(t, tn)
	appendBatch(t, pts.URL, ds.Name, masAppends[0])
	appendBatch(t, pts.URL, ds.Name, masAppends[1])

	proxy := &corruptingProxy{target: pts.URL}
	proxyTS := httptest.NewServer(proxy)
	t.Cleanup(proxyTS.Close)

	f, fts := startFollower(t, ds, pts.URL, fastOpts())
	waitApplied(t, f, 2)

	// Re-point impossible (client is fixed at construction), so build a
	// second follower that tails through the corrupting wire instead.
	proxy.budget.Store(3)
	f2, fts2 := startFollower(t, ds, proxyTS.URL, fastOpts())
	appendBatch(t, pts.URL, ds.Name, masAppends[2])
	appendBatch(t, pts.URL, ds.Name, masAppends[3])

	// Every corrupted batch must be rejected before anything is applied.
	deadline := time.Now().Add(15 * time.Second)
	for proxy.hits.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("corrupting proxy used %d of 3 budget", proxy.hits.Load())
		}
		if f2.AppliedSeq() != 2 {
			t.Fatalf("follower applied seq %d while the wire was corrupt", f2.AppliedSeq())
		}
		time.Sleep(time.Millisecond)
	}
	waitApplied(t, f2, 4)
	if st := f2.Status(); st.RejectedBatches < 3 {
		t.Fatalf("rejected batches = %d, want >= 3", st.RejectedBatches)
	}
	want := probe(t, pts.URL, "mas")
	for _, base := range []string{fts.URL, fts2.URL} {
		waitApplied(t, f, 4)
		if got := probe(t, base, "mas"); !bytes.Equal(want, got) {
			t.Fatalf("follower %s diverged after wire corruption", base)
		}
	}
}
