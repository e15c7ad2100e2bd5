package serve

// Durability-layer tests: AttachWAL recovery semantics, the WAL-first
// append path over HTTP, compaction (forced, threshold and interrupted),
// and the WAL stats surfaced on /healthz and the admin API. The
// whole-stack kill-and-recover soak lives in internal/workload.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/store"
	"templar/internal/templar"
	"templar/internal/wal"
	"templar/pkg/api"
)

// durableTenant assembles a WAL-armed tenant the way templar-serve does:
// pack (or reuse) the dataset's snapshot in storeDir, load the engine from
// it, then attach the write-ahead log under walDir, replaying any tail.
func durableTenant(t testing.TB, ds *datasets.Dataset, storeDir, walDir string) (*Tenant, *wal.Recovery) {
	t.Helper()
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
	tn := &Tenant{Name: ds.Name, Sys: sys, Source: "store", StorePath: path, SnapshotSeq: ar.WalSeq}
	rec, err := AttachWAL(tn, walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tn.WAL.Close() })
	return tn, rec
}

// durableServer wires one durable tenant into a registry server.
func durableServer(t testing.TB, tn *Tenant) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Add(tn); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistryServer(reg, tn.Name, 2, nil).Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

// appendBatch posts one batch append and returns the acknowledged response.
func appendBatch(t testing.TB, ts *httptest.Server, dataset string, req api.LogAppendRequest) api.LogAppendResponse {
	t.Helper()
	var resp api.LogAppendResponse
	if s := postJSON(t, ts.URL+"/v2/"+dataset+"/log", req, &resp); s != http.StatusOK {
		t.Fatalf("append status = %d", s)
	}
	return resp
}

// TestDurableAppendRecoverParity drives acknowledged appends (batch and
// session) through the HTTP stack, then boots a second tenant from the
// same disk state — exactly what a post-crash restart does — and asserts
// the recovered engine reports the same log shape and answers a probe
// byte-identically to the engine that never "crashed". The first tenant's
// WAL is deliberately not closed first: with per-append fsync, everything
// acknowledged is already on disk.
func TestDurableAppendRecoverParity(t *testing.T) {
	ds := datasets.MAS()
	storeDir, walDir := t.TempDir(), t.TempDir()
	tn, rec := durableTenant(t, ds, storeDir, walDir)
	if len(rec.Records) != 0 || tn.WAL.LastSeq() != 0 {
		t.Fatalf("fresh WAL not empty: %d records, seq %d", len(rec.Records), tn.WAL.LastSeq())
	}
	ts, _ := durableServer(t, tn)

	r1 := appendBatch(t, ts, "mas", api.LogAppendRequest{Queries: []api.LogEntry{
		{SQL: "SELECT j.name FROM journal j", Count: 3},
		{SQL: "SELECT p.title FROM publication p"},
	}})
	if r1.WALSeq != 1 {
		t.Fatalf("first ack wal_seq = %d, want 1", r1.WALSeq)
	}
	r2 := appendBatch(t, ts, "mas", api.LogAppendRequest{
		Session: true,
		Decay:   0.7,
		Queries: []api.LogEntry{
			{SQL: "SELECT a.name FROM author a"},
			{SQL: "SELECT p.title FROM publication p"},
		},
	})
	if r2.WALSeq != 2 {
		t.Fatalf("second ack wal_seq = %d, want 2", r2.WALSeq)
	}

	probe := api.TranslateRequest{Queries: []api.KeywordsInput{{Spec: "papers:select;Databases:where"}}}
	var want api.TranslateResponse
	if s := postJSON(t, ts.URL+"/v2/mas/translate", probe, &want); s != http.StatusOK {
		t.Fatalf("probe status = %d", s)
	}

	// "Restart": a fresh tenant over the same store + WAL directories.
	tn2, rec2 := durableTenant(t, ds, storeDir, walDir)
	if len(rec2.Records) != 2 || tn2.WAL.LastSeq() != 2 {
		t.Fatalf("recovery scanned %d records to seq %d, want 2 to 2", len(rec2.Records), tn2.WAL.LastSeq())
	}
	ts2, _ := durableServer(t, tn2)
	snap1 := tn.Sys.Live().CurrentSnapshot()
	snap2 := tn2.Sys.Live().CurrentSnapshot()
	if snap1.Queries() != snap2.Queries() || snap1.Vertices() != snap2.Vertices() || snap1.Edges() != snap2.Edges() {
		t.Fatalf("recovered shape (%d,%d,%d) != live shape (%d,%d,%d)",
			snap2.Queries(), snap2.Vertices(), snap2.Edges(),
			snap1.Queries(), snap1.Vertices(), snap1.Edges())
	}
	var got api.TranslateResponse
	if s := postJSON(t, ts2.URL+"/v2/mas/translate", probe, &got); s != http.StatusOK {
		t.Fatalf("recovered probe status = %d", s)
	}
	assertSameJSON(t, want, got)

	// The recovered log keeps accepting appends where the acks left off.
	r3 := appendBatch(t, ts2, "mas", api.LogAppendRequest{Queries: []api.LogEntry{
		{SQL: "SELECT j.name FROM journal j"},
	}})
	if r3.WALSeq != 3 {
		t.Fatalf("post-recovery ack wal_seq = %d, want 3", r3.WALSeq)
	}
}

// assertSameJSON compares two values by their marshaled form, which is the
// wire-level equality clients observe.
func assertSameJSON(t testing.TB, want, got any) {
	t.Helper()
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(w) != string(g) {
		t.Fatalf("wire responses differ:\nwant %s\ngot  %s", w, g)
	}
}

// TestAttachWALRejectsIrreconcilableLogs covers the fail-loud boot paths:
// a frozen engine, a second attach, a log that ends behind the snapshot
// (stale/restored), and a log whose records resume past the snapshot (a
// gap). Each must refuse to serve rather than corrupt silently.
func TestAttachWALRejectsIrreconcilableLogs(t *testing.T) {
	ds := datasets.MAS()

	t.Run("frozen engine", func(t *testing.T) {
		tn := &Tenant{Name: ds.Name, Sys: buildSystem(t, ds, keyword.Options{})}
		if _, err := AttachWAL(tn, t.TempDir(), wal.Options{}); err == nil || !strings.Contains(err.Error(), "frozen") {
			t.Fatalf("err = %v, want frozen-engine refusal", err)
		}
	})

	t.Run("double attach", func(t *testing.T) {
		tn, _ := durableTenant(t, ds, t.TempDir(), t.TempDir())
		if _, err := AttachWAL(tn, t.TempDir(), wal.Options{}); err == nil || !strings.Contains(err.Error(), "already") {
			t.Fatalf("err = %v, want double-attach refusal", err)
		}
	})

	// seedWAL writes a log under dir whose records span (base, base+n].
	seedWAL := func(t *testing.T, dir string, base uint64, n int) {
		t.Helper()
		l, _, err := wal.Open(dir, ds.Name, wal.Options{CreateBase: base})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := l.Append(&wal.Record{Entries: []wal.Entry{{SQL: "SELECT j.name FROM journal j", Count: 1}}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	liveTenant := func(t *testing.T, snapshotSeq uint64) *Tenant {
		t.Helper()
		return &Tenant{
			Name:        ds.Name,
			Sys:         buildLiveSystem(t, ds, keyword.Options{}),
			SnapshotSeq: snapshotSeq,
		}
	}

	t.Run("stale log", func(t *testing.T) {
		dir := t.TempDir()
		seedWAL(t, dir, 0, 2)  // log ends at seq 2
		tn := liveTenant(t, 5) // snapshot already covers 5
		if _, err := AttachWAL(tn, dir, wal.Options{}); err == nil || !strings.Contains(err.Error(), "stale") {
			t.Fatalf("err = %v, want stale-log refusal", err)
		}
	})

	t.Run("gap between snapshot and log", func(t *testing.T) {
		dir := t.TempDir()
		seedWAL(t, dir, 6, 1) // records resume at seq 7
		tn := liveTenant(t, 3)
		if _, err := AttachWAL(tn, dir, wal.Options{}); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Fatalf("err = %v, want gap refusal", err)
		}
	})

	t.Run("empty log past snapshot", func(t *testing.T) {
		dir := t.TempDir()
		seedWAL(t, dir, 6, 0) // no records, but the segment claims seq 6
		tn := liveTenant(t, 3)
		if _, err := AttachWAL(tn, dir, wal.Options{}); err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("err = %v, want mismatch refusal", err)
		}
	})
}

// TestCompactTenant exercises the compactor against a served tenant: a
// forced compaction folds the WAL into the snapshot (the archive's WalSeq
// advances, the live segment resets), appends keep flowing afterwards with
// continuous sequence numbers, and a tenant booted from the compacted
// state matches the original.
func TestCompactTenant(t *testing.T) {
	ds := datasets.MAS()
	storeDir, walDir := t.TempDir(), t.TempDir()
	tn, _ := durableTenant(t, ds, storeDir, walDir)
	ts, reg := durableServer(t, tn)

	appendBatch(t, ts, "mas", api.LogAppendRequest{Queries: []api.LogEntry{{SQL: "SELECT j.name FROM journal j", Count: 2}}})
	appendBatch(t, ts, "mas", api.LogAppendRequest{Queries: []api.LogEntry{{SQL: "SELECT p.title FROM publication p"}}})

	c := NewCompactor(reg, 1<<30, time.Hour)
	// Under the byte threshold: a sweep must leave the tenant alone.
	if done, err := c.CompactTenant(tn, false); err != nil || done {
		t.Fatalf("under-threshold compaction: done=%v err=%v", done, err)
	}
	done, err := c.CompactTenant(tn, true)
	if err != nil || !done {
		t.Fatalf("forced compaction: done=%v err=%v", done, err)
	}
	ar, err := store.ReadFile(tn.StorePath)
	if err != nil {
		t.Fatal(err)
	}
	if ar.WalSeq != 2 {
		t.Fatalf("compacted archive WalSeq = %d, want 2", ar.WalSeq)
	}
	st := tn.WAL.Stats()
	if st.Records != 0 || st.Compactions != 1 || st.Seq != 2 {
		t.Fatalf("post-compaction stats = %+v", st)
	}

	// Appends continue on the fresh segment with the global sequence.
	r := appendBatch(t, ts, "mas", api.LogAppendRequest{Queries: []api.LogEntry{{SQL: "SELECT a.name FROM author a"}}})
	if r.WALSeq != 3 {
		t.Fatalf("post-compaction ack wal_seq = %d, want 3", r.WALSeq)
	}

	// A boot from the compacted store + short WAL matches the live engine.
	tn2, rec2 := durableTenant(t, ds, storeDir, walDir)
	if tn2.SnapshotSeq != 2 || len(rec2.Records) != 1 || tn2.WAL.LastSeq() != 3 {
		t.Fatalf("recovered snapshotSeq=%d records=%d lastSeq=%d, want 2/1/3",
			tn2.SnapshotSeq, len(rec2.Records), tn2.WAL.LastSeq())
	}
	s1, s2 := tn.Sys.Live().CurrentSnapshot(), tn2.Sys.Live().CurrentSnapshot()
	if s1.Queries() != s2.Queries() || s1.Vertices() != s2.Vertices() || s1.Edges() != s2.Edges() {
		t.Fatalf("recovered shape (%d,%d,%d) != live shape (%d,%d,%d)",
			s2.Queries(), s2.Vertices(), s2.Edges(), s1.Queries(), s1.Vertices(), s1.Edges())
	}
}

// TestCompactionInterruptedIsCompleted simulates a compaction dying right
// after the rotate (the snapshot write never happened) and asserts both
// recovery paths finish it: the next sweep's retry branch, and — in a
// separate run — the boot-time AttachWAL completion.
func TestCompactionInterruptedIsCompleted(t *testing.T) {
	ds := datasets.MAS()

	t.Run("next sweep completes it", func(t *testing.T) {
		storeDir, walDir := t.TempDir(), t.TempDir()
		tn, _ := durableTenant(t, ds, storeDir, walDir)
		ts, reg := durableServer(t, tn)
		appendBatch(t, ts, "mas", api.LogAppendRequest{Queries: []api.LogEntry{{SQL: "SELECT j.name FROM journal j"}}})

		// Rotate, then "die" before persisting the snapshot.
		if _, err := tn.WAL.StartCompaction(); err != nil {
			t.Fatal(err)
		}
		if !tn.WAL.CompactionPending() {
			t.Fatal("rotation left no pending compaction")
		}
		done, err := NewCompactor(reg, 1<<30, time.Hour).CompactTenant(tn, false)
		if err != nil || !done {
			t.Fatalf("retry sweep: done=%v err=%v", done, err)
		}
		if tn.WAL.CompactionPending() {
			t.Fatal("pending compaction survived the retry sweep")
		}
		ar, err := store.ReadFile(tn.StorePath)
		if err != nil {
			t.Fatal(err)
		}
		if ar.WalSeq != 1 {
			t.Fatalf("retry persisted WalSeq = %d, want 1", ar.WalSeq)
		}
	})

	t.Run("boot completes it", func(t *testing.T) {
		storeDir, walDir := t.TempDir(), t.TempDir()
		tn, _ := durableTenant(t, ds, storeDir, walDir)
		ts, _ := durableServer(t, tn)
		appendBatch(t, ts, "mas", api.LogAppendRequest{Queries: []api.LogEntry{{SQL: "SELECT j.name FROM journal j"}}})
		if _, err := tn.WAL.StartCompaction(); err != nil {
			t.Fatal(err)
		}

		tn2, rec2 := durableTenant(t, ds, storeDir, walDir)
		if !rec2.CompactionPending {
			t.Fatal("boot recovery did not notice the interrupted compaction")
		}
		if tn2.WAL.CompactionPending() {
			t.Fatal("boot left the compaction pending despite a StorePath")
		}
		ar, err := store.ReadFile(tn2.StorePath)
		if err != nil {
			t.Fatal(err)
		}
		if ar.WalSeq != 1 {
			t.Fatalf("boot persisted WalSeq = %d, want 1", ar.WalSeq)
		}
		oldSeg := filepath.Join(walDir, wal.Filename(ds.Name)+".old")
		if _, err := os.Stat(oldSeg); !os.IsNotExist(err) {
			t.Fatalf("rotated segment %s not released after boot completion (err=%v)", oldSeg, err)
		}
	})
}

// TestWALStatsOnWire asserts the operator surfaces: /healthz mirrors the
// default dataset's WAL stats and GET /admin/datasets carries them for
// every WAL-armed tenant, with the frozen fields the wire contract names.
func TestWALStatsOnWire(t *testing.T) {
	ds := datasets.MAS()
	tn, _ := durableTenant(t, ds, t.TempDir(), t.TempDir())
	ts, _ := durableServer(t, tn)
	appendBatch(t, ts, "mas", api.LogAppendRequest{Queries: []api.LogEntry{{SQL: "SELECT j.name FROM journal j"}}})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.HealthResponse
	decodeBody(t, resp, &h)
	if h.WAL == nil {
		t.Fatal("healthz missing wal stats for the durable default dataset")
	}
	if h.WAL.Seq != 1 || h.WAL.Records != 1 || h.WAL.SyncPolicy != "always" || h.WAL.Bytes == 0 {
		t.Fatalf("healthz wal = %+v", h.WAL)
	}
	if h.WAL.LastSyncUnixMS == 0 {
		t.Fatal("healthz wal missing last sync timestamp after a synced append")
	}

	resp, err = http.Get(ts.URL + "/admin/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var dsResp api.DatasetsResponse
	decodeBody(t, resp, &dsResp)
	if len(dsResp.Datasets) != 1 || dsResp.Datasets[0].WAL == nil {
		t.Fatalf("admin datasets missing wal stats: %+v", dsResp)
	}
	if got := dsResp.Datasets[0].WAL; got.Seq != 1 || got.SyncPolicy != "always" {
		t.Fatalf("admin wal = %+v", got)
	}
}

// TestDrainRacesCompaction simulates SIGTERM arriving while a compaction
// is mid-flight (rotated, snapshot not yet persisted — the PR-6 crash
// window) and pins both drain outcomes:
//
//   - the drain handoff (stop admitting → final sweep → WAL sync+close)
//     completes the pending compaction, so the next boot recovers a clean
//     log;
//   - the drain deadline kills the process before the final sweep — the
//     on-disk state is exactly the recoverable rotate window, and boot
//     finishes the compaction with every acked append intact.
//
// Either way, a SIGTERM racing the compactor must never invent a third,
// unrecoverable disk state.
func TestDrainRacesCompaction(t *testing.T) {
	ds := datasets.MAS()

	boot := func(t *testing.T) (*Server, *httptest.Server, *Tenant, string, string) {
		t.Helper()
		storeDir, walDir := t.TempDir(), t.TempDir()
		tn, _ := durableTenant(t, ds, storeDir, walDir)
		reg := NewRegistry()
		if err := reg.Add(tn); err != nil {
			t.Fatal(err)
		}
		srv := NewRegistryServer(reg, tn.Name, 2, nil).WithAdmission(16)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		appendBatch(t, ts, "mas", api.LogAppendRequest{Queries: []api.LogEntry{
			{SQL: "SELECT j.name FROM journal j", Count: 2},
		}})
		appendBatch(t, ts, "mas", api.LogAppendRequest{Queries: []api.LogEntry{
			{SQL: "SELECT p.title FROM publication p"},
		}})
		// The compaction has rotated but not yet captured the snapshot
		// when the SIGTERM lands.
		if _, err := tn.WAL.StartCompaction(); err != nil {
			t.Fatal(err)
		}
		srv.BeginDrain()
		// Draining refuses new appends — nothing can be acked that the
		// handoff (or the next boot) would then have to preserve.
		status, hdr, raw := postRaw(t, ts.URL+"/v2/mas/log", api.LogAppendRequest{
			Queries: []api.LogEntry{{SQL: "SELECT a.name FROM author a"}},
		})
		wantProblem(t, status, hdr, raw, http.StatusServiceUnavailable, api.CodeDraining)
		return srv, ts, tn, storeDir, walDir
	}

	assertRecovered := func(t *testing.T, tn *Tenant, storeDir, walDir string) {
		t.Helper()
		tn2, _ := durableTenant(t, ds, storeDir, walDir)
		if tn2.WAL.CompactionPending() {
			t.Fatal("pending compaction survived recovery")
		}
		s1, s2 := tn.Sys.Live().CurrentSnapshot(), tn2.Sys.Live().CurrentSnapshot()
		if s1.Queries() != s2.Queries() || s1.Vertices() != s2.Vertices() || s1.Edges() != s2.Edges() {
			t.Fatalf("recovered shape (%d,%d,%d) != drained shape (%d,%d,%d)",
				s2.Queries(), s2.Vertices(), s2.Edges(), s1.Queries(), s1.Vertices(), s1.Edges())
		}
		ar, err := store.ReadFile(tn2.StorePath)
		if err != nil {
			t.Fatal(err)
		}
		if ar.WalSeq != 2 {
			t.Fatalf("compacted archive WalSeq = %d, want 2 (both acked appends)", ar.WalSeq)
		}
	}

	t.Run("handoff completes it", func(t *testing.T) {
		srv, _, tn, storeDir, walDir := boot(t)
		// The templar-serve drain sequence after the listener stops.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.DrainWait(ctx); err != nil {
			t.Fatalf("drain wait: %v", err)
		}
		NewCompactor(srv.Registry(), 1<<30, time.Hour).Sweep()
		if tn.WAL.CompactionPending() {
			t.Fatal("final sweep left the compaction pending")
		}
		if err := tn.WAL.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := tn.WAL.Close(); err != nil {
			t.Fatal(err)
		}
		assertRecovered(t, tn, storeDir, walDir)
	})

	t.Run("deadline kills it mid-window", func(t *testing.T) {
		_, _, tn, storeDir, walDir := boot(t)
		// No final sweep, no close: the process died with the rotate
		// window open. Boot must notice and complete the compaction.
		if !tn.WAL.CompactionPending() {
			t.Fatal("test setup: compaction window not open")
		}
		assertRecovered(t, tn, storeDir, walDir)
	})
}

// decodeBody decodes an HTTP response body into out.
func decodeBody(t testing.TB, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
