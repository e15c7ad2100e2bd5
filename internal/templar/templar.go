// Package templar is the public facade of the Templar system (paper §III-D):
// a log-augmentation layer that existing pipeline NLIDBs call on two fronts,
// keyword mapping (MAPKEYWORDS) and join path inference (INFERJOINS). The
// two calls are independent; the NLIDB owns NLQ parsing and final SQL
// construction.
//
// The query surface is context-first: every call takes a context.Context
// (a canceled request aborts configuration enumeration and join path
// search mid-flight, not just at dispatch) and an optional *CallOptions
// with per-request knobs. Typical use:
//
//	entries, _ := sqlparse.ParseLog(logText)
//	snap, _ := qfg.Build(entries, fragment.NoConstOp)
//	t := templar.NewLive(database, model, snap, templar.Options{})
//	configs, _ := t.MapKeywords(ctx, keywords, nil)
//	paths, _ := t.InferJoins(ctx, []string{"publication", "domain"}, &templar.CallOptions{TopK: 3})
//
// NewLive is the one constructor, and its qfg.SnapshotSource decides the
// log's lifecycle. A fixed *qfg.Snapshot (built from a log, or loaded
// from internal/store) is a frozen log. A serving layer that keeps folding
// user queries back into its log passes a *qfg.Live instead: every append
// republishes an immutable snapshot, and the first read after it rebuilds
// the System's Engine — the other readers wait for that one rebuild, then
// every read is again one atomic load. A nil source is the log-free
// baseline.
//
// An Engine is one snapshot's worth of serving state. A caller that makes
// several calls for one request (a translate batch, or MAPKEYWORDS then
// INFERJOINS) resolves System.Engine once and calls it, so every answer
// comes from the same log state.
package templar

import (
	"context"
	"sync"
	"sync/atomic"

	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/joinpath"
	"templar/internal/keyword"
	"templar/internal/nlidb"
	"templar/internal/qfg"
)

// Options configures a Templar instance.
type Options struct {
	// Keyword configures the Keyword Mapper (κ, λ, obscurity, …).
	Keyword keyword.Options
	// LogJoin enables log-driven join path weights (Table IV's toggle).
	// When false, join inference uses uniform weights (shortest path),
	// while keyword mapping still uses the QFG.
	LogJoin bool
}

// Engine is one immutable compiled view a System serves from: the QFG
// snapshot it was derived from, a keyword mapper ranking against that
// snapshot, the join generator whose edge weights were baked from it, and
// the translator over both. Every call on one Engine scores configurations
// and weighs join edges against one mutually consistent log state. An
// Engine is safe for concurrent use.
type Engine struct {
	snap       *qfg.Snapshot // nil when the system has no QFG
	mapper     *keyword.Mapper
	joins      *joinpath.Generator
	translator *nlidb.System
}

// System is a Templar instance bound to one database, similarity model and
// query fragment graph.
//
// A System is safe for concurrent use by multiple goroutines: the keyword
// mapper precomputes its candidate index at construction and ranks against
// an immutable interned-ID QFG snapshot, the join generator clones its
// precomputed adjacency graph per call, and the current Engine is read with
// one atomic load. Over a *qfg.Live, a log append republishes a fresh
// snapshot and the next Engine call rebuilds the engine copy-on-write;
// readers block only for that one rebuild, and in-flight requests keep the
// engine they resolved. The one caller obligation is to stop mutating the
// database (Insert) before constructing the System.
type System struct {
	database *db.Database
	opts     Options
	live     *qfg.Live // nil when the log is frozen or absent
	// cur is the engine serving requests; rebuildMu serializes the
	// copy-on-write rebuild after a live republish.
	cur       atomic.Pointer[Engine]
	rebuildMu sync.Mutex
}

// NewLive builds a Templar instance over the query log src publishes:
//
//   - a *qfg.Live is a growing log — every snapshot it publishes gets its
//     own Engine (mapper and log-driven join weights), rebuilt on the
//     first read that observes the republish; Live returns it for appends;
//   - a fixed *qfg.Snapshot (e.g. one loaded from internal/store) is a
//     frozen log: the engine serves the snapshot's arrays as-is and Live
//     returns nil, so appends are refused;
//   - nil (or a nil *qfg.Live or *qfg.Snapshot) degrades both calls to
//     their log-free baselines.
func NewLive(database *db.Database, model *embedding.Model, src qfg.SnapshotSource, opts Options) *System {
	s := &System{database: database, opts: opts}
	var snap *qfg.Snapshot
	switch v := src.(type) {
	case nil:
	case *qfg.Live:
		if v != nil {
			s.live, snap = v, v.CurrentSnapshot()
		}
	default:
		snap = src.CurrentSnapshot() // a nil *qfg.Snapshot yields nil
	}
	s.cur.Store(s.newEngine(snap, keyword.NewMapper(database, model, snap, opts.Keyword)))
	return s
}

// newEngine compiles the serving state for snap around a mapper already
// pinned to it. Engines of one System share the first mapper's candidate
// index and similarity cache (keyword.Mapper.WithSnapshot).
func (s *System) newEngine(snap *qfg.Snapshot, mapper *keyword.Mapper) *Engine {
	var w joinpath.WeightFunc
	if s.opts.LogJoin && snap != nil {
		w = joinpath.LogWeights(snap)
	}
	joins := joinpath.NewGenerator(s.database.Schema(), w)
	return &Engine{
		snap:       snap,
		mapper:     mapper,
		joins:      joins,
		translator: nlidb.NewFromParts("Templar", mapper, joins, nlidb.Config{}),
	}
}

// Engine returns the engine for the log's current snapshot, never one
// older than the snapshot the live log had published when Engine was
// called. It is one atomic load until the log republishes; the first call
// after a republish rebuilds the engine, and concurrent callers wait for
// that rebuild instead of being served the previous one.
func (s *System) Engine() *Engine {
	e := s.cur.Load()
	if s.live == nil || e.snap == s.live.CurrentSnapshot() {
		return e
	}
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	snap := s.live.CurrentSnapshot()
	if e = s.cur.Load(); e.snap != snap {
		e = s.newEngine(snap, e.mapper.WithSnapshot(snap))
		s.cur.Store(e)
	}
	return e
}

// Database returns the bound database.
func (s *System) Database() *db.Database { return s.database }

// Live returns the live query log behind the system, or nil when the log
// is frozen (or absent). Serving layers append user queries through it.
func (s *System) Live() *qfg.Live { return s.live }

// Mapper returns the current engine's keyword mapper.
func (s *System) Mapper() *keyword.Mapper { return s.Engine().mapper }

// Joins returns the current engine's join path generator.
func (s *System) Joins() *joinpath.Generator { return s.Engine().joins }

// Snapshot returns the QFG snapshot the current engine serves from (nil
// for a log-free baseline), for diagnostics endpoints.
func (s *System) Snapshot() *qfg.Snapshot { return s.Engine().snap }

// MapKeywords runs Engine().MapKeywords.
func (s *System) MapKeywords(ctx context.Context, keywords []keyword.Keyword, opts *CallOptions) ([]keyword.Configuration, error) {
	return s.Engine().MapKeywords(ctx, keywords, opts)
}

// InferJoins runs Engine().InferJoins.
func (s *System) InferJoins(ctx context.Context, relationBag []string, opts *CallOptions) ([]joinpath.Path, error) {
	return s.Engine().InferJoins(ctx, relationBag, opts)
}

// Translate runs Engine().Translate.
func (s *System) Translate(ctx context.Context, kws []keyword.Keyword, opts *CallOptions) (*nlidb.Translation, error) {
	return s.Engine().Translate(ctx, kws, opts)
}

// Snapshot returns the QFG snapshot the engine serves from (nil for a
// log-free baseline).
func (e *Engine) Snapshot() *qfg.Snapshot { return e.snap }

// Mapper returns the engine's keyword mapper, pinned to its snapshot.
func (e *Engine) Mapper() *keyword.Mapper { return e.mapper }

// Joins returns the engine's join path generator.
func (e *Engine) Joins() *joinpath.Generator { return e.joins }

// CallOptions are per-request knobs for the query surface. A nil
// *CallOptions means "engine defaults" everywhere; the zero value of any
// field leaves that default in place. One options struct serves all three
// calls — each reads only the fields that apply to it.
type CallOptions struct {
	// TopK caps what the call returns: configurations for MapKeywords
	// (0 = all), join paths for InferJoins (0 = 1).
	TopK int
	// MaxCandidates overrides κ, the candidate mappings kept per keyword
	// after pruning.
	MaxCandidates int
	// MaxConfigurations caps the keyword-mapping configuration
	// enumeration.
	MaxConfigurations int
	// TopConfigs bounds how many configurations Translate tries for SQL
	// construction.
	TopConfigs int
	// TopPaths bounds how many join paths Translate considers per
	// configuration.
	TopPaths int
	// Obscurity asserts the fragment obscurity level the caller expects;
	// a level the engine's log was not mined at is a
	// *keyword.ObscurityMismatchError.
	Obscurity *fragment.Obscurity
}

// keywordOpts projects the mapper-facing fields (nil-safe).
func (o *CallOptions) keywordOpts() keyword.CallOptions {
	if o == nil {
		return keyword.CallOptions{}
	}
	return keyword.CallOptions{K: o.MaxCandidates, MaxConfigurations: o.MaxConfigurations, Obscurity: o.Obscurity}
}

// nlidbOpts projects the translator-facing fields (nil-safe).
func (o *CallOptions) nlidbOpts() nlidb.CallOptions {
	if o == nil {
		return nlidb.CallOptions{}
	}
	return nlidb.CallOptions{Keyword: o.keywordOpts(), TopConfigs: o.TopConfigs, TopPaths: o.TopPaths}
}

// MapKeywords executes MAPKEYWORDS (Φ = MAPKEYWORDS(D, S, M)): it returns
// keyword-mapping configurations ranked from most to least likely,
// trimmed to opts.TopK when set. The trim is pushed into the mapper, which
// then runs a bounded top-k selection over the configuration enumeration
// instead of materializing and sorting the whole cartesian product; the
// result is identical to sorting everything and slicing. ctx cancellation
// aborts the enumeration mid-flight.
func (e *Engine) MapKeywords(ctx context.Context, keywords []keyword.Keyword, opts *CallOptions) ([]keyword.Configuration, error) {
	kco := opts.keywordOpts()
	if opts != nil {
		kco.TopK = opts.TopK
	}
	return e.mapper.MapKeywordsCtx(ctx, keywords, kco)
}

// InferJoins executes INFERJOINS (J = INFERJOINS(Gs, BD)): given the bag of
// relations known to be part of the SQL query (duplicates trigger self-join
// forking), it returns up to opts.TopK join paths (default 1) ranked from
// most to least likely. ctx cancellation aborts the Steiner search
// mid-flight.
func (e *Engine) InferJoins(ctx context.Context, relationBag []string, opts *CallOptions) ([]joinpath.Path, error) {
	topK := 1
	if opts != nil && opts.TopK > 0 {
		topK = opts.TopK
	}
	return e.joins.InferCtx(ctx, relationBag, topK)
}

// Translate runs the full NLQ→SQL pipeline over the engine's mapper and
// join generator: MAPKEYWORDS → INFERJOINS per configuration → SQL
// construction → ranking. It is the one-call front the serving layer exposes; NLIDBs
// that own their own SQL construction keep using MapKeywords + InferJoins.
// ctx cancellation aborts enumeration and path search mid-pipeline.
func (e *Engine) Translate(ctx context.Context, kws []keyword.Keyword, opts *CallOptions) (*nlidb.Translation, error) {
	return e.translator.TranslateCtx(ctx, "", false, kws, opts.nlidbOpts())
}
