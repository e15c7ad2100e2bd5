package nlidb

import (
	"context"
	"errors"
	"fmt"
	"math"

	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/joinpath"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
)

// Translation is the output of one NLQ→SQL translation attempt.
type Translation struct {
	// SQL is the canonical form of the top-ranked query.
	SQL string
	// Rendered is the aliased SQL text as the NLIDB would emit it.
	Rendered string
	// Config is the winning keyword-mapping configuration.
	Config keyword.Configuration
	// Path is the winning join path.
	Path joinpath.Path
	// Score is the combined ranking score of the winner.
	Score float64
	// Tie reports that a *different* SQL query tied for the top score; the
	// evaluation counts tied results as incorrect (§VII-A5).
	Tie bool
}

// System is one NLIDB under evaluation.
type System struct {
	name   string
	mapper *keyword.Mapper
	joins  *joinpath.Generator
	noise  *ParserNoise
}

const (
	// defaultTopConfigs bounds how many configurations are tried for SQL
	// construction.
	defaultTopConfigs = 8
	// defaultTopPaths bounds how many join paths are considered per
	// configuration. Under uniform weights an equal-length rival path
	// yields the same ranking score with different SQL, which the
	// evaluation counts as incorrect; a few alternatives per
	// configuration let those ties surface.
	defaultTopPaths = 3
)

// Name returns the system's display name ("Pipeline", "Pipeline+", …).
func (s *System) Name() string { return s.name }

// Config bundles what varies between the evaluated systems.
type Config struct {
	// Keyword configures κ, λ, obscurity for the mapper.
	Keyword keyword.Options
	// QFG is the compiled query log: log-driven keyword-mapping scores
	// and, with LogJoin, join weights derive from it. nil gives the
	// log-free baseline.
	QFG *qfg.Snapshot
	// LogJoin switches join inference to log-driven edge weights.
	LogJoin bool
	// JoinWeights, when non-nil, overrides the join weight function
	// entirely (used by the design ablations, e.g. raw-count weights).
	JoinWeights joinpath.WeightFunc
	// Noise applies a parser corruption model before mapping (NaLIR).
	Noise *ParserNoise
}

// NewSystem assembles a named NLIDB: a keyword mapper ranking against the
// compiled cfg.QFG snapshot (nil for the log-free baseline) and a join
// generator whose weights are cfg.JoinWeights, else LogWeights over the
// snapshot when cfg.LogJoin is set, else uniform.
func NewSystem(name string, database *db.Database, model *embedding.Model, cfg Config) *System {
	mapper := keyword.NewMapper(database, model, cfg.QFG, cfg.Keyword)
	w := cfg.JoinWeights
	if w == nil && cfg.LogJoin && cfg.QFG != nil {
		w = joinpath.LogWeights(cfg.QFG)
	}
	return NewFromParts(name, mapper, joinpath.NewGenerator(database.Schema(), w), cfg)
}

// NewFromParts assembles a System around a prebuilt mapper and join-path
// generator, so a serving layer can run translation through the same
// index/cache-backed components it uses for direct mapping calls. The
// Keyword, QFG, LogJoin and JoinWeights fields of cfg are ignored — they
// are already baked into the parts; Noise applies.
func NewFromParts(name string, mapper *keyword.Mapper, joins *joinpath.Generator, cfg Config) *System {
	return &System{name: name, mapper: mapper, joins: joins, noise: cfg.Noise}
}

// CallOptions are per-request overrides of a System's construction-time
// bounds; the zero value changes nothing.
type CallOptions struct {
	// Keyword is forwarded to the mapper (κ override, enumeration cap,
	// obscurity assertion).
	Keyword keyword.CallOptions
	// TopConfigs overrides how many configurations are tried for SQL
	// construction (0 = default, 8).
	TopConfigs int
	// TopPaths overrides how many join paths are considered per
	// configuration (0 = default, 3).
	TopPaths int
}

// Translate runs the full pipeline with no cancellation and the
// default bounds; see TranslateCtx.
func (s *System) Translate(nlq string, hazard bool, kws []keyword.Keyword) (*Translation, error) {
	return s.TranslateCtx(context.Background(), nlq, hazard, kws, CallOptions{})
}

// TranslateCtx runs the full pipeline for one parsed NLQ: (optional parser
// noise) → MAPKEYWORDS → INFERJOINS per configuration → SQL construction →
// ranking by configuration score × join-path goodness.
//
// ctx rides into the mapper's configuration enumeration and every join
// path search, and is additionally checked between configurations, so a
// canceled request aborts mid-pipeline with the wrapped ctx error.
func (s *System) TranslateCtx(ctx context.Context, nlq string, hazard bool, kws []keyword.Keyword, co CallOptions) (*Translation, error) {
	if s.noise != nil {
		kws = s.noise.Corrupt(nlq, hazard, kws)
	}
	cands, err := s.candidates(ctx, kws, co)
	if err != nil {
		return nil, err
	}
	// Ranking follows the pipeline architecture (§III-F): the keyword
	// mapping configuration ranks first; among equally-likely
	// configurations (and among the join paths of one configuration) the
	// join-path goodness breaks ties. SQL construction never promotes a
	// lower-ranked configuration over a higher one — which also means
	// ranking needs only the two scores. SQL is therefore built lazily:
	// candidates are ranked score-first, and the construct→canonicalize
	// chain runs only for the winner (and, for tie detection, its exact
	// rank peers) instead of every (configuration, path) pair.
	better := func(a, b candidate) bool {
		if math.Abs(a.cfgScore-b.cfgScore) > 1e-12 {
			return a.cfgScore > b.cfgScore
		}
		return a.goodness > b.goodness+1e-12
	}
	// Select the best buildable candidate: a candidate whose SQL cannot be
	// assembled (the join path fails to cover a mapped relation) is
	// discarded and selection re-runs, exactly as if it had been filtered
	// out up front.
	var (
		best      int
		bestQ     *sqlparse.Query
		bestCanon string
	)
	for {
		best = -1
		for i := range cands {
			if cands[i].dead {
				continue
			}
			if best < 0 || better(cands[i], cands[best]) {
				best = i
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("nlidb: no feasible configuration for keywords %v", kws)
		}
		q, err := BuildSQL(cands[best].cfg, cands[best].path)
		if err != nil {
			cands[best].dead = true
			continue
		}
		canon, err := canonicalSQL(q)
		if err != nil {
			return nil, fmt.Errorf("nlidb: generated unparseable SQL: %w", err)
		}
		bestQ, bestCanon = q, canon
		break
	}
	tr := Translation{
		SQL:      bestCanon,
		Rendered: bestQ.String(),
		Config:   cands[best].cfg,
		Path:     cands[best].path,
		Score:    cands[best].cfgScore * cands[best].goodness,
	}
	// The winning configuration's Mappings slice is a view into the
	// mapper's shared enumeration arena; copy it so a retained Translation
	// doesn't pin every enumerated configuration in memory.
	tr.Config.Mappings = append([]keyword.Mapping(nil), tr.Config.Mappings...)
	for i := range cands {
		if i == best || cands[i].dead {
			continue
		}
		sameRank := math.Abs(cands[i].cfgScore-cands[best].cfgScore) <= 1e-12 &&
			math.Abs(cands[i].goodness-cands[best].goodness) <= 1e-12
		if !sameRank {
			continue
		}
		q, err := BuildSQL(cands[i].cfg, cands[i].path)
		if err != nil {
			continue // would have been filtered out of the eager list too
		}
		canon, err := canonicalSQL(q)
		if err != nil {
			return nil, fmt.Errorf("nlidb: generated unparseable SQL: %w", err)
		}
		if canon != bestCanon {
			tr.Tie = true
			break
		}
	}
	return &tr, nil
}

// candidate is one (configuration, join path) pair of a translation,
// ranked by its two scores alone.
type candidate struct {
	cfg      keyword.Configuration
	path     joinpath.Path
	cfgScore float64
	goodness float64
	dead     bool // BuildSQL failed: path does not cover the bag
}

// candidates maps kws and infers up to topPaths join paths for each of
// the best topConfigs configurations, returning every (configuration,
// path) pair in configuration-then-path order. A configuration whose bag
// is disconnected contributes nothing.
func (s *System) candidates(ctx context.Context, kws []keyword.Keyword, co CallOptions) ([]candidate, error) {
	topConfigs := defaultTopConfigs
	if co.TopConfigs > 0 {
		topConfigs = co.TopConfigs
	}
	topPaths := defaultTopPaths
	if co.TopPaths > 0 {
		topPaths = co.TopPaths
	}
	// Only the best topConfigs configurations are ever tried for SQL
	// construction, so tell the mapper: it then runs a bounded top-k
	// selection over the enumeration (identical results to sorting the
	// whole product and slicing) instead of materializing all of it.
	kco := co.Keyword
	if kco.TopK <= 0 || kco.TopK > topConfigs {
		kco.TopK = topConfigs
	}
	configs, err := s.mapper.MapKeywordsCtx(ctx, kws, kco)
	if err != nil {
		return nil, err
	}
	cands := make([]candidate, 0, len(configs)*topPaths)
	for _, cfg := range configs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("nlidb: translation canceled: %w", err)
		}
		bag := RelationBag(cfg)
		paths, err := s.joins.InferCtx(ctx, bag, topPaths)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err // canceled mid-search, not an infeasible bag
			}
			continue // disconnected bag: this configuration is infeasible
		}
		for _, p := range paths {
			cands = append(cands, candidate{cfg: cfg, path: p, cfgScore: cfg.Score, goodness: p.Goodness})
		}
	}
	return cands, nil
}

// TopMappings exposes the mapper's ranked configurations without SQL
// construction, for keyword-mapping (KW) accuracy measurement. Parser noise
// is applied the same way Translate applies it.
func (s *System) TopMappings(nlq string, hazard bool, kws []keyword.Keyword) ([]keyword.Configuration, error) {
	if s.noise != nil {
		kws = s.noise.Corrupt(nlq, hazard, kws)
	}
	return s.mapper.MapKeywords(kws)
}
