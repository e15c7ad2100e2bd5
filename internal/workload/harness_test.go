package workload

// Shared test scaffolding: building live/frozen/store-loaded serving
// engines over the benchmark datasets and wiring them into an HTTP server
// plus SDK client, the way production deployments assemble the stack.

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/serve"
	"templar/internal/sqlparse"
	"templar/internal/store"
	"templar/internal/templar"
	"templar/internal/wal"
	"templar/pkg/client"
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

// liveSystem builds an appendable log-mined engine.
func liveSystem(t testing.TB, ds *datasets.Dataset) *templar.System {
	t.Helper()
	live := qfg.NewLive(buildGraph(t, ds))
	return templar.NewLive(ds.DB, embedding.New(), live, templar.Options{LogJoin: true})
}

// frozenSystem builds a non-appendable engine (Live() == nil).
func frozenSystem(t testing.TB, ds *datasets.Dataset) *templar.System {
	t.Helper()
	return templar.NewLive(ds.DB, embedding.New(), buildGraph(t, ds), templar.Options{LogJoin: true})
}

// storeLoadedLiveSystem round-trips the dataset's snapshot through the
// binary .qfg codec and serves from the decoded archive, appendable — the
// cold-start-from-store path under live traffic.
func storeLoadedLiveSystem(t testing.TB, ds *datasets.Dataset) *templar.System {
	t.Helper()
	packed := store.Encode(ds.Name, buildGraph(t, ds))
	ar, err := store.Decode(packed)
	if err != nil {
		t.Fatal(err)
	}
	live := qfg.NewLive(ar.Snapshot)
	return templar.NewLive(ds.DB, embedding.New(), live, templar.Options{LogJoin: true})
}

// durableTenant assembles a WAL-armed tenant the way templar-serve does:
// pack (or reuse) the dataset's snapshot in storeDir, load the engine from
// it, attach the write-ahead log under walDir and replay any tail — the
// full crash-recovery boot path.
func durableTenant(t testing.TB, ds *datasets.Dataset, storeDir, walDir string) (*serve.Tenant, *wal.Recovery) {
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
	tn := &serve.Tenant{Name: ds.Name, Sys: sys, Source: "store", StorePath: path, SnapshotSeq: ar.WalSeq}
	rec, err := serve.AttachWAL(tn, walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tn.WAL.Close() })
	return tn, rec
}

// tenantServer wires named engines into a registry server and returns it
// with an SDK client bound to it.
func tenantServer(t testing.TB, workers int, tenants ...*serve.Tenant) (*httptest.Server, *client.Client) {
	t.Helper()
	reg := serve.NewRegistry()
	for _, tn := range tenants {
		if err := reg.Add(tn); err != nil {
			t.Fatal(err)
		}
	}
	srv := serve.NewRegistryServer(reg, tenants[0].Name, workers, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	return ts, c
}

// soakDuration is how long each soak phase keeps traffic in flight:
// TEMPLAR_SOAK_MS (make soak / workflow_dispatch parameterize it), with a
// short PR-gate default chosen to still interleave hundreds of appends
// with thousands of reads under -race.
func soakDuration(t testing.TB) time.Duration {
	t.Helper()
	if v := os.Getenv("TEMPLAR_SOAK_MS"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			t.Fatalf("bad TEMPLAR_SOAK_MS %q", v)
		}
		return time.Duration(ms) * time.Millisecond
	}
	if testing.Short() {
		return 300 * time.Millisecond
	}
	return 1200 * time.Millisecond
}
