package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/serve"
	"templar/internal/sqlparse"
	"templar/internal/store"
	"templar/internal/templar"
	"templar/internal/wal"
)

// serveWorkers is the server's worker pool size, equal to the cores the
// benchmark is sized for.
const serveWorkers = 2

// walOptions is the synth tenant's durability policy: fsync on every
// append before it is acknowledged.
var walOptions = wal.Options{SyncInterval: 0}

// engineOptions is the serving engine's operating point, the one the
// golden corpora are pinned at (κ=5, λ=0.8, log-driven join weights).
func engineOptions(ob fragment.Obscurity) templar.Options {
	return templar.Options{
		Keyword: keyword.Options{K: 5, Lambda: 0.8, Obscurity: ob},
		LogJoin: true,
	}
}

// fleet is one booted set of tenants behind one server.
type fleet struct {
	reg   *serve.Registry
	srv   *serve.Server
	synth *serve.Tenant
	gold  map[string]*serve.Tenant
	// walDir and storePath locate the synth tenant's durable state.
	walDir, storePath string
}

// bootFleet builds every tenant from its log and attaches the synth
// tenant's WAL under dir. Only the boot calls run here (log parse, QFG
// build, engine construction, WAL attach); inputs are generated before.
func bootFleet(in *inputs, dir string, tr *tracer) (*fleet, error) {
	root := tr.begin("boot", -1, 0)
	defer tr.end(root)
	f := &fleet{reg: serve.NewRegistry(), gold: make(map[string]*serve.Tenant)}
	for _, g := range in.gold {
		sql := make([]string, len(g.ds.Tasks))
		for i, t := range g.ds.Tasks {
			sql[i] = t.Gold
		}
		t, err := bootTenant(g.ds.Name, g.ds.DB, sql, g.ob, tr, root)
		if err != nil {
			return nil, err
		}
		f.gold[g.ds.Name] = t
		if err := f.reg.Add(t); err != nil {
			return nil, err
		}
	}
	t, err := bootTenant(synthName, in.synth.db, in.synth.log, fragment.Full, tr, root)
	if err != nil {
		return nil, err
	}
	f.walDir = filepath.Join(dir, "wal")
	f.storePath = filepath.Join(dir, store.Filename(synthName))
	t.StorePath = f.storePath
	sp := tr.begin("wal.attach", root, 0)
	if _, err := serve.AttachWAL(t, f.walDir, walOptions); err != nil {
		return nil, err
	}
	tr.end(sp)
	f.synth = t
	if err := f.reg.Add(t); err != nil {
		return nil, err
	}
	f.srv = serve.NewRegistryServer(f.reg, "MAS", serveWorkers, nil)
	return f, nil
}

// bootTenant parses a SQL log, builds and compiles its QFG and constructs
// the serving engine over it.
func bootTenant(name string, database *db.Database, sql []string, ob fragment.Obscurity, tr *tracer, parent int) (*serve.Tenant, error) {
	start := time.Now()
	root := tr.begin("tenant."+name, parent, 0)
	defer tr.end(root)
	entries := make([]sqlparse.LogEntry, len(sql))
	sp := tr.begin("sqlparse.log", root, 0)
	for i, s := range sql {
		q := tr.begin("sqlparse.parse", sp, 0)
		parsed, err := sqlparse.Parse(s)
		tr.end(q)
		if err != nil {
			return nil, fmt.Errorf("%s log line %d: %w", name, i+1, err)
		}
		entries[i] = sqlparse.LogEntry{Query: parsed, Count: 1}
	}
	tr.end(sp)
	sp = tr.begin("qfg.build", root, 0)
	g, err := qfg.Build(entries, ob)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("qfg.compile", root, 0)
	live := qfg.NewLive(g)
	tr.end(sp)
	sp = tr.begin("templar.engine", root, 0)
	sys := templar.NewLive(database, embedding.New(), live, engineOptions(ob))
	tr.end(sp)
	return &serve.Tenant{Name: name, Sys: sys, Source: "built", LoadTime: time.Since(start)}, nil
}

// close releases the fleet's WAL.
func (f *fleet) close() error {
	if f.synth != nil && f.synth.WAL != nil {
		return f.synth.WAL.Close()
	}
	return nil
}

// listener serves a fleet over loopback HTTP until stop is called.
type listener struct {
	base string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{base: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (l *listener) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// freshDir creates an empty directory, removing what a previous boot left.
func freshDir(path string) error {
	if err := os.RemoveAll(path); err != nil {
		return err
	}
	return os.MkdirAll(path, 0o755)
}
