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
//	g, _ := qfg.Build(entries, fragment.NoConstOp)
//	t := templar.NewLive(database, model, g.Snapshot(nil), templar.Options{})
//	configs, _ := t.MapKeywords(ctx, keywords, nil)
//	paths, _ := t.InferJoins(ctx, []string{"publication", "domain"}, &templar.CallOptions{TopK: 3})
//
// NewLive is the one constructor, and its qfg.SnapshotSource decides the
// log's lifecycle. A fixed *qfg.Snapshot (compiled from a graph, or loaded
// from internal/store) is a frozen log. A serving layer that keeps folding
// user queries back into its log passes a *qfg.Live instead: every append
// republishes an immutable snapshot, and the System swaps its
// scoring/weighting engine behind an atomic pointer without ever blocking
// readers. A nil source is the log-free baseline.
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

// engine is one immutable compiled view the System serves from: the QFG
// snapshot it was derived from, the join generator whose edge weights were
// baked from that snapshot, and the translator over a mapper pinned to
// that same snapshot. Engines are swapped whole behind an atomic pointer,
// so a Translate call scores configurations and weighs join edges against
// one mutually consistent log state.
type engine struct {
	snap       *qfg.Snapshot // nil when the system has no QFG
	joins      *joinpath.Generator
	translator *nlidb.System
}

// System is a Templar instance bound to one database, similarity model and
// query fragment graph.
//
// A System is safe for concurrent use by multiple goroutines: the keyword
// mapper precomputes its candidate index at construction and ranks against
// an immutable interned-ID QFG snapshot, the join generator clones its
// precomputed adjacency graph per call, and the current engine is read with
// one atomic load. Over a *qfg.Live, log appends republish a fresh snapshot
// and the engine is rebuilt copy-on-write — in-flight readers keep the engine
// they loaded and are never blocked. The one caller obligation is to stop
// mutating the database (Insert) before constructing the System.
type System struct {
	database *db.Database
	model    *embedding.Model
	opts     Options
	mapper   *keyword.Mapper
	src      qfg.SnapshotSource // nil for the log-free baseline
	// cur is the engine serving requests; rebuildMu serializes the
	// copy-on-write rebuild after a live republish (readers that lose the
	// TryLock race serve the previous engine instead of blocking).
	cur       atomic.Pointer[engine]
	rebuildMu sync.Mutex
}

// NewLive builds a Templar instance over the query log src publishes:
//
//   - a *qfg.Live is a growing log — the mapper ranks against whatever
//     snapshot it currently publishes, and the join generator (whose
//     log-driven weights are baked at build time) is rebuilt copy-on-write
//     whenever a republish is observed; Live returns it for appends;
//   - a fixed *qfg.Snapshot (e.g. one loaded from internal/store) is a
//     frozen log: the engine serves the snapshot's arrays as-is and Live
//     returns nil, so appends are refused;
//   - nil (or a nil *qfg.Live or *qfg.Snapshot) degrades both calls to
//     their log-free baselines.
func NewLive(database *db.Database, model *embedding.Model, src qfg.SnapshotSource, opts Options) *System {
	src = qfg.NonNilSource(src)
	s := &System{database: database, model: model, opts: opts, src: src}
	s.mapper = keyword.NewMapper(database, model, src, opts.Keyword)
	var snap *qfg.Snapshot
	if src != nil {
		snap = src.CurrentSnapshot()
	}
	s.cur.Store(s.buildEngine(snap))
	return s
}

// buildEngine compiles the per-snapshot serving state. The translator's
// mapper is pinned to the engine's snapshot (sharing the candidate index
// and similarity cache with the System's base mapper), so one Translate
// call never mixes configuration scores from a newer republish with join
// weights from an older one.
func (s *System) buildEngine(snap *qfg.Snapshot) *engine {
	var w joinpath.WeightFunc
	if s.opts.LogJoin && snap != nil {
		w = joinpath.LogWeights(snap)
	}
	joins := joinpath.NewGenerator(s.database.Schema(), w)
	mapper := s.mapper
	if snap != nil {
		mapper = mapper.WithSource(snap)
	}
	return &engine{
		snap:       snap,
		joins:      joins,
		translator: nlidb.NewFromParts("Templar", mapper, joins, nlidb.Config{}),
	}
}

// engine returns the current serving engine, rebuilding it first when the
// source has published a newer snapshot (only a *qfg.Live ever does).
// Readers never block: if another goroutine already holds the rebuild
// lock, the previous engine — a complete, consistent view of an older log
// state — serves the request.
func (s *System) engine() *engine {
	e := s.cur.Load()
	if s.src == nil {
		return e
	}
	snap := s.src.CurrentSnapshot()
	if e.snap == snap {
		return e
	}
	if !s.rebuildMu.TryLock() {
		return e
	}
	defer s.rebuildMu.Unlock()
	snap = s.src.CurrentSnapshot()
	if e = s.cur.Load(); e.snap == snap {
		return e
	}
	e = s.buildEngine(snap)
	s.cur.Store(e)
	return e
}

// Database returns the bound database.
func (s *System) Database() *db.Database { return s.database }

// Mapper returns the shared, index- and cache-backed keyword mapper.
func (s *System) Mapper() *keyword.Mapper { return s.mapper }

// Joins returns the current join path generator. With a live log the
// returned generator is a point-in-time view; prefer InferJoins, which
// picks up republished weights per call.
func (s *System) Joins() *joinpath.Generator { return s.engine().joins }

// Live returns the live query log behind the system, or nil when the log
// is frozen (or absent). Serving layers append user queries through it.
func (s *System) Live() *qfg.Live {
	live, _ := s.src.(*qfg.Live)
	return live
}

// Snapshot returns the QFG snapshot the current engine serves from (nil
// for a log-free baseline), for diagnostics endpoints.
func (s *System) Snapshot() *qfg.Snapshot { return s.engine().snap }

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
func (s *System) MapKeywords(ctx context.Context, keywords []keyword.Keyword, opts *CallOptions) ([]keyword.Configuration, error) {
	kco := opts.keywordOpts()
	if opts != nil {
		kco.TopK = opts.TopK
	}
	return s.mapper.MapKeywordsCtx(ctx, keywords, kco)
}

// InferJoins executes INFERJOINS (J = INFERJOINS(Gs, BD)): given the bag of
// relations known to be part of the SQL query (duplicates trigger self-join
// forking), it returns up to opts.TopK join paths (default 1) ranked from
// most to least likely. ctx cancellation aborts the Steiner search
// mid-flight.
func (s *System) InferJoins(ctx context.Context, relationBag []string, opts *CallOptions) ([]joinpath.Path, error) {
	topK := 1
	if opts != nil && opts.TopK > 0 {
		topK = opts.TopK
	}
	return s.engine().joins.InferCtx(ctx, relationBag, topK)
}

// Translate runs the full NLQ→SQL pipeline over the shared mapper and join
// generator: MAPKEYWORDS → INFERJOINS per configuration → SQL construction
// → ranking. It is the one-call front the serving layer exposes; NLIDBs
// that own their own SQL construction keep using MapKeywords + InferJoins.
// ctx cancellation aborts enumeration and path search mid-pipeline.
func (s *System) Translate(ctx context.Context, kws []keyword.Keyword, opts *CallOptions) (*nlidb.Translation, error) {
	return s.engine().translator.TranslateCtx(ctx, "", false, kws, opts.nlidbOpts())
}
