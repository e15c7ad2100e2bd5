// Command templar-serve runs the concurrent multi-tenant HTTP serving
// layer: one process hosts any number of named datasets, each behind its
// own Templar engine, all sharing one bounded worker pool. Engines are
// resolved per request from an atomic registry, so admin operations never
// block traffic.
//
// Cold start is a file read when a snapshot store is configured: with
// -store DIR, each dataset's packed QFG snapshot (DIR/<name>.qfg, see
// internal/store) is loaded when present — no SQL-log re-mine — and written
// after building otherwise, so the *next* boot is fast. Either way the log
// stays live: POST /v1/{dataset}/log appends user queries and republishes
// an immutable snapshot copy-on-write without blocking in-flight readers.
//
// With -wal DIR (requires -store), every log append is additionally made
// durable in a per-tenant write-ahead log (DIR/<name>.wal, see
// internal/wal) before it is acknowledged: a crash between snapshots loses
// nothing. Boot replays the WAL tail past the snapshot's recorded
// sequence, and a background compactor folds grown logs back into fresh
// snapshots (-wal-compact-bytes, -wal-compact-every). -wal-sync trades
// durability for throughput: 0 fsyncs every append, an interval batches
// them. See docs/DURABILITY.md for the full model and operator runbook.
//
// With -follow URL (excludes -store/-wal), the process runs as a
// read-only follower replica of the primary at URL: each dataset
// bootstraps from the primary's snapshot endpoint and tails its WAL
// stream (GET /v2/{dataset}/wal), folding records through the same
// replay path boot recovery uses. Appends are answered with a 307
// redirect to the primary; replication lag is reported per dataset on
// /healthz. Put cmd/templar-gateway in front to route a fleet. See
// docs/ARCHITECTURE.md (replication) and docs/OPERATIONS.md (runbook).
//
// Usage:
//
//	templar-serve -datasets mas,yelp,imdb -store ./snapshots -addr :8080 [-wal ./wal] [-workers 8] [-pprof]
//	templar-serve -datasets mas,yelp,imdb -follow http://primary:8080 -addr :8081
//
// The first -datasets entry is the default dataset: the legacy unprefixed
// routes (/v1/map-keywords, …) alias it, so single-tenant clients keep
// working unchanged.
//
// Endpoints (see README.md for the full request/response reference and
// docs/openapi.yaml for the machine-readable v2 contract):
//
//	GET    /healthz
//	GET    /v2/datasets
//	POST   /v2/{dataset}/map-keywords   {"spec":"papers:select;Databases:where","top_k":3}
//	POST   /v2/{dataset}/infer-joins    {"relations":["publication","domain"],"top_k":3}
//	POST   /v2/{dataset}/translate      {"queries":[{"spec":"papers:select;Databases:where"}]}
//	POST   /v2/{dataset}/log            {"queries":[{"sql":"SELECT ...","count":2}]}
//	POST   /v1/...                      frozen legacy contract (string errors, "top")
//	GET    /admin/datasets
//	POST   /admin/datasets              {"name":"imdb"}  — load from store or build
//	DELETE /admin/datasets/{name}
//
// With -pprof, the net/http/pprof profiling endpoints are mounted under
// /debug/pprof/ on the same listener (CPU: /debug/pprof/profile, heap:
// /debug/pprof/heap, …).
//
// Overload control (see docs/OPERATIONS.md): -max-inflight bounds the
// admitted requests server-wide, shedding the expensive endpoints first
// with 429 + Retry-After; -tenant-rps/-tenant-burst/-tenant-max-inflight
// set default per-dataset quotas (override per dataset via
// PUT /admin/datasets/{name}/limits). SIGTERM/SIGINT triggers a graceful
// drain: /healthz flips to "draining" (load balancers stop routing), new
// work is refused with 503, in-flight requests finish, the WAL is swept,
// synced and closed, and the process exits — all within -drain-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/repl"
	"templar/internal/serve"
	"templar/internal/sqlparse"
	"templar/internal/store"
	"templar/internal/templar"
	"templar/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		datasetCS  = flag.String("datasets", "mas", "comma-separated datasets to serve (mas, yelp, imdb); the first is the default")
		dataset    = flag.String("dataset", "", "deprecated: single dataset (alias for -datasets)")
		storeDir   = flag.String("store", "", "snapshot store directory: load packed .qfg snapshots when present, write them after building otherwise")
		walDir     = flag.String("wal", "", "write-ahead log directory: make log appends durable before acknowledging them (requires -store)")
		walSync    = flag.Duration("wal-sync", 0, "WAL fsync interval (0 = fsync every append; an interval batches fsyncs, trading the tail for throughput)")
		walBytes   = flag.Int64("wal-compact-bytes", 4<<20, "compact a tenant's WAL into a fresh snapshot once its live segment exceeds this many bytes")
		walEvery   = flag.Duration("wal-compact-every", 15*time.Second, "how often the background compactor sweeps WAL-armed tenants")
		follow     = flag.String("follow", "", "primary base URL: serve as a read-only follower replica (bootstrap from the primary's snapshot, tail its WAL stream; appends redirect to the primary; excludes -store/-wal)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = min(GOMAXPROCS, 8))")
		kappa      = flag.Int("kappa", 5, "kappa: candidates kept per keyword")
		lambda     = flag.Float64("lambda", 0.8, "lambda: similarity vs log evidence weight")
		logJoin    = flag.Bool("log-join", true, "use log-driven join path weights")
		adminToken = flag.String("admin-token", "", "require 'Authorization: Bearer <token>' on /admin routes (empty = open)")
		withPprof  = flag.Bool("pprof", false, "mount net/http/pprof endpoints under /debug/pprof/")
		accessLog  = flag.Bool("access-log", false, "log one line per request (method, path, status, latency, request id)")
		maxBody    = flag.Int64("max-body-bytes", 0, "request body byte cap (0 = default 1MiB); structured 413 beyond it")
		maxBatch   = flag.Int("max-batch", 0, "translate/log batch size cap (0 = defaults 64/256); structured 422 beyond it")
		maxInFly   = flag.Int("max-inflight", 0, "server-wide admitted-request bound (0 = unbounded); past it, expensive endpoints shed first with 429 + Retry-After")
		tenantRPS  = flag.Float64("tenant-rps", 0, "default per-dataset sustained request rate (0 = unlimited); token-bucket, 429 rate_limited when dry")
		tenantBur  = flag.Int("tenant-burst", 0, "default per-dataset burst above -tenant-rps (0 with a rate = max(1, ceil(rate)))")
		tenantFly  = flag.Int("tenant-max-inflight", 0, "default per-dataset in-flight quota (0 = unlimited)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline on SIGTERM/SIGINT: in-flight requests plus the final WAL sweep must finish within it")
	)
	flag.Parse()

	names := strings.Split(*datasetCS, ",")
	if *dataset != "" {
		names = []string{*dataset}
	}
	if *walDir != "" && *storeDir == "" {
		fatal(fmt.Errorf("-wal requires -store: the write-ahead log compacts into, and recovers against, packed snapshots"))
	}
	if *follow != "" && (*storeDir != "" || *walDir != "") {
		fatal(fmt.Errorf("-follow excludes -store/-wal: a follower replicates the primary's durability over HTTP, it does not own any"))
	}
	opts := templar.Options{
		Keyword: keyword.Options{K: *kappa, Lambda: *lambda},
		LogJoin: *logJoin,
	}
	// Followers tail the primary on a cancelable context so drain can park
	// them before the listener closes; on a primary the group stays empty.
	followCtx, stopFollowers := context.WithCancel(context.Background())
	defer stopFollowers()
	var followerWG sync.WaitGroup

	loader := func(ctx context.Context, name string) (*serve.Tenant, error) {
		return loadTenant(ctx, name, *storeDir, *walDir, *walSync, opts)
	}
	if *follow != "" {
		// On a follower, admin-loaded datasets are replicas too: bootstrap
		// from the primary and start the tail loop, never own a WAL.
		loader = func(ctx context.Context, name string) (*serve.Tenant, error) {
			t, err := followTenant(ctx, name, *follow, opts)
			if err != nil {
				return nil, err
			}
			f := t.Follower
			followerWG.Add(1)
			go func() {
				defer followerWG.Done()
				f.Run(followCtx)
			}()
			return t, nil
		}
	}

	reg := serve.NewRegistry()
	defaultName := ""
	for _, raw := range names {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		tenant, err := loader(context.Background(), name)
		if err != nil {
			fatal(err)
		}
		if err := reg.Add(tenant); err != nil {
			fatal(err)
		}
		if defaultName == "" {
			defaultName = tenant.Name
		}
		snap := tenant.Sys.Snapshot()
		log.Printf("templar-serve: dataset=%s source=%s mmap=%t log=%d queries (%d fragments, %d edges) ready in %s",
			tenant.Name, tenant.Source, tenant.Mapping != nil, snap.Queries(), snap.Vertices(), snap.Edges(),
			tenant.LoadTime.Round(time.Millisecond))
	}
	if defaultName == "" {
		fatal(fmt.Errorf("no datasets to serve (want -datasets mas,yelp,imdb)"))
	}

	srv := serve.NewRegistryServer(reg, defaultName, *workers, loader).
		WithAdminToken(*adminToken).
		WithLimits(*maxBody, *maxBatch, *maxBatch).
		WithAdmission(*maxInFly)
	if *tenantRPS > 0 || *tenantBur > 0 || *tenantFly > 0 {
		srv.WithTenantDefaults(serve.TenantLimits{
			PerSecond:   *tenantRPS,
			Burst:       *tenantBur,
			MaxInFlight: *tenantFly,
		})
		log.Printf("templar-serve: per-dataset defaults rps=%g burst=%d max-inflight=%d", *tenantRPS, *tenantBur, *tenantFly)
	}
	if *accessLog {
		srv.WithAccessLog(log.Default())
	}
	log.Printf("templar-serve: serving %d dataset(s), default=%s workers=%d max-inflight=%d",
		reg.Len(), defaultName, srv.Pool().Workers(), *maxInFly)

	// The compactor runs on a cancelable context so drain can stop it and
	// take over the final sweep without racing a background compaction.
	compactCtx, stopCompactor := context.WithCancel(context.Background())
	defer stopCompactor()
	compactorDone := make(chan struct{})
	var compactor *serve.Compactor
	if *walDir != "" {
		compactor = serve.NewCompactor(reg, *walBytes, *walEvery).WithLogger(log.Default())
		go func() {
			defer close(compactorDone)
			compactor.Run(compactCtx)
		}()
		log.Printf("templar-serve: WAL compactor sweeping every %s (threshold %d bytes)", *walEvery, *walBytes)
	} else {
		close(compactorDone)
	}

	handler := srv.Handler()
	if *withPprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("templar-serve: pprof enabled at /debug/pprof/")
	}
	log.Printf("templar-serve: listening on %s", *addr)
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Slowloris guard: a client must finish its request header quickly,
		// and idle keep-alive connections are reaped so a drain is not held
		// hostage by sockets with no request on them.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stopSignals()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		fatal(err) // bind failure or listener death — nothing to drain
	case <-sigCtx.Done():
	}
	// Restore default signal handling: a second SIGTERM/SIGINT kills the
	// process immediately instead of being swallowed mid-drain.
	stopSignals()

	// Graceful drain, in dependency order, all under one deadline:
	// refuse new work, finish what was admitted, then quiesce the WAL so
	// the next boot replays nothing that was already folded.
	start := time.Now()
	log.Printf("templar-serve: signal received, draining (deadline %s)", *drainWait)
	srv.BeginDrain() // healthz flips to "draining"; non-exempt requests get 503
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(ctx) // stop accepting, wait for handlers
	drainErr := srv.DrainWait(ctx)       // admitted in-flight gauge reaches 0
	stopCompactor()
	<-compactorDone // the background sweeper is parked; the final sweep is ours
	stopFollowers()
	followerWG.Wait() // replication pollers parked; no half-applied batch remains
	compacted := 0
	if compactor != nil && drainErr == nil {
		compacted = compactor.Sweep() // fold the WAL tail into fresh snapshots
	}
	walSynced := 0
	for _, t := range reg.Tenants() {
		if t.WAL == nil {
			continue
		}
		if err := t.WAL.Sync(); err != nil {
			log.Printf("templar-serve: dataset=%s final WAL fsync: %v", t.Name, err)
			continue
		}
		if err := t.WAL.Close(); err != nil {
			log.Printf("templar-serve: dataset=%s WAL close: %v", t.Name, err)
			continue
		}
		walSynced++
	}
	// Release snapshot mappings last: the drain and the compaction sweep
	// above were the final readers of any snapshot aliasing the boot file.
	for _, t := range reg.Tenants() {
		if t.Mapping != nil {
			if err := t.Mapping.Close(); err != nil {
				log.Printf("templar-serve: dataset=%s snapshot unmap: %v", t.Name, err)
			}
		}
	}

	ov := srv.Overload()
	clean := shutdownErr == nil && drainErr == nil
	log.Printf("templar-serve: shutdown clean=%t took=%s inflight=%d admitted=%d shed_draining=%d compacted=%d wal_closed=%d",
		clean, time.Since(start).Round(time.Millisecond), ov.InFlight, ov.Admitted, ov.ShedDraining, compacted, walSynced)
	if !clean {
		// In-flight work outlived the deadline: exit nonzero so operators
		// and orchestrators see the drain was forced, not graceful. The WAL
		// was still synced above — acknowledged appends are on disk, and
		// anything unfolded replays at the next boot.
		fatal(fmt.Errorf("drain deadline exceeded after %s (shutdown: %v, drain: %v)", *drainWait, shutdownErr, drainErr))
	}
}

// loadTenant materializes one dataset's serving engine: from the snapshot
// store when a packed file exists (cold start = one file read), by
// re-mining the gold-SQL log otherwise — in which case the freshly built
// snapshot is packed back into the store so the next boot is fast. The
// engine always serves a live log; appends keep working either way because
// they splice new snapshots from the published one. With a WAL
// directory, the tenant's write-ahead log is attached last: any records
// past the snapshot's recorded sequence are replayed, so the engine comes
// up byte-identical to one that never crashed. ctx honors the Loader
// contract: an admin client that disconnects mid-build stops the re-mine
// instead of finishing a doomed engine on a pool worker.
func loadTenant(ctx context.Context, name, storeDir, walDir string, walSync time.Duration, opts templar.Options) (*serve.Tenant, error) {
	ds, ok := datasets.ByName(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q (want mas, yelp or imdb)", serve.ErrUnknownDataset, name)
	}

	start := time.Now()
	var live *qfg.Live
	source := "built"
	path := ""
	var snapshotSeq uint64
	var mapped *store.Mapped
	if storeDir != "" {
		path = filepath.Join(storeDir, store.Filename(ds.Name))
		// Open, not ReadFile: a v3 archive is served straight out of the
		// page cache (interner strings and CSR arrays alias the mapping),
		// so cold start does no per-fragment allocation and co-located
		// processes share one physical copy. Pre-v3 archives fall back to
		// the copying decode inside Open.
		switch m, err := store.Open(path); {
		case err == nil:
			live = qfg.NewLive(m.Snapshot)
			source = "store"
			snapshotSeq = m.WalSeq
			if m.Mmapped() {
				mapped = m
			}
		case errors.Is(err, fs.ErrNotExist):
			// First boot for this dataset: fall through to the build.
		default:
			// Unreadable archive (truncated, corrupt, foreign): rebuild from
			// the log and overwrite it below rather than failing the boot.
			log.Printf("templar-serve: ignoring snapshot %s: %v", path, err)
		}
	}
	if live == nil {
		graph, err := buildQFG(ctx, ds)
		if err != nil {
			return nil, err
		}
		live = qfg.NewLive(graph)
		if path != "" {
			if err := os.MkdirAll(storeDir, 0o777); err != nil {
				return nil, err
			}
			if err := store.WriteFile(path, ds.Name, live.CurrentSnapshot()); err != nil {
				return nil, fmt.Errorf("packing %s: %w", path, err)
			}
			log.Printf("templar-serve: packed %s snapshot into %s", ds.Name, path)
		}
	}
	sys := templar.NewLive(ds.DB, embedding.New(), live, opts)
	tenant := &serve.Tenant{
		Name:        ds.Name,
		Sys:         sys,
		Source:      source,
		StorePath:   path,
		SnapshotSeq: snapshotSeq,
	}
	if mapped != nil {
		// Guarded assignment: a nil *store.Mapped stored directly in the
		// io.Closer field would make Mapping != nil.
		tenant.Mapping = mapped
	}
	if walDir != "" {
		if err := os.MkdirAll(walDir, 0o777); err != nil {
			return nil, err
		}
		rec, err := serve.AttachWAL(tenant, walDir, wal.Options{SyncInterval: walSync})
		if err != nil {
			return nil, err
		}
		if n := len(rec.Records); n > 0 || rec.DroppedBytes > 0 || rec.CompactionPending {
			replayed := 0
			for _, r := range rec.Records {
				if r.Seq > snapshotSeq {
					replayed++
				}
			}
			msg := fmt.Sprintf("templar-serve: dataset=%s WAL recovery: %d record(s) scanned, %d replayed past snapshot seq %d",
				ds.Name, n, replayed, snapshotSeq)
			if rec.DroppedBytes > 0 {
				msg += fmt.Sprintf(", %d torn tail byte(s) dropped (%v)", rec.DroppedBytes, rec.Cause)
			}
			if rec.CompactionPending {
				msg += ", interrupted compaction completed"
			}
			log.Print(msg)
		}
	}
	tenant.LoadTime = time.Since(start)
	return tenant, nil
}

// followTenant materializes one dataset as a read-only follower replica:
// download the primary's packed snapshot (the watermark names the WAL
// sequence it covers), build a live engine from it, and hand back a
// tenant armed with the tail loop the caller starts. The tenant carries
// no WAL and no store path — durability is the primary's job; a follower
// that restarts simply re-bootstraps.
func followTenant(ctx context.Context, name, primary string, opts templar.Options) (*serve.Tenant, error) {
	ds, ok := datasets.ByName(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q (want mas, yelp or imdb)", serve.ErrUnknownDataset, name)
	}
	start := time.Now()
	rc, err := repl.NewClient(primary, nil)
	if err != nil {
		return nil, err
	}
	live, seq, err := repl.Bootstrap(ctx, rc, ds.Name)
	if err != nil {
		return nil, fmt.Errorf("bootstrapping %s from %s: %w", ds.Name, primary, err)
	}
	sys := templar.NewLive(ds.DB, embedding.New(), live, opts)
	f := repl.NewFollower(rc, ds.Name, live, seq, repl.FollowerOptions{Logger: log.Default()})
	log.Printf("templar-serve: dataset=%s bootstrapped from %s at seq %d", ds.Name, primary, seq)
	return &serve.Tenant{
		Name:     ds.Name,
		Sys:      sys,
		Source:   "replica",
		Follower: f,
		Primary:  primary,
		LoadTime: time.Since(start),
	}, nil
}

// buildQFG folds every benchmark gold query into the training log,
// checking for cancellation between queries so an abandoned admin load
// frees its pool worker promptly.
func buildQFG(ctx context.Context, ds *datasets.Dataset) (*qfg.Snapshot, error) {
	entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
	for _, t := range ds.Tasks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		q, err := sqlparse.Parse(t.Gold)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.ID, err)
		}
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	return qfg.Build(entries, fragment.NoConstOp)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "templar-serve:", err)
	os.Exit(1)
}
