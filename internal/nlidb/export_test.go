package nlidb

import (
	"context"

	"templar/internal/keyword"
	"templar/internal/sqlparse"
)

// Test-only hooks for the external differential test in package
// nlidb_test, which needs internal/eval (an importer of this package) and
// so cannot live in package nlidb.

var (
	CanonicalSQL          = canonicalSQL
	RoundTripCanonicalSQL = roundTripCanonicalSQL
)

// CandidateQueries builds the SQL of every (configuration, path) pair
// Translate ranks for one NLQ at the default bounds, parser noise
// included, skipping the pairs BuildSQL rejects as Translate does.
func (s *System) CandidateQueries(nlq string, hazard bool, kws []keyword.Keyword) ([]*sqlparse.Query, error) {
	if s.noise != nil {
		kws = s.noise.Corrupt(nlq, hazard, kws)
	}
	cands, err := s.candidates(context.Background(), kws, CallOptions{})
	if err != nil {
		return nil, err
	}
	var out []*sqlparse.Query
	for _, c := range cands {
		if q, err := BuildSQL(c.cfg, c.path); err == nil {
			out = append(out, q)
		}
	}
	return out, nil
}
