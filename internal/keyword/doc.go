// Package keyword implements Templar's Keyword Mapper (paper §V,
// Algorithms 1–3): mapping NLQ keywords to candidate query fragments,
// scoring and pruning the candidates with a word-similarity model, and
// ranking whole configurations with the blend of the similarity score and
// the Query Fragment Graph's co-occurrence evidence:
//
//	Score(φ) = λ·Scoreσ(φ) + (1−λ)·ScoreQFG(φ)
//
// # Entry points
//
// Mapper is the engine; MapKeywords is the call (Algorithm 1). NewMapper
// binds a mapper to a database, a similarity model and one fixed
// *qfg.Snapshot (compiled from a graph or loaded from internal/store), or
// nil for the log-free baseline. The mapper never reads a qfg.Live: a
// growing log is followed by templar, whose per-snapshot engines each hold
// a WithSnapshot copy sharing the candidate index and similarity cache.
//
// A Mapper is safe for concurrent use: candidate retrieval goes through an
// inverted index over schema names and column values precomputed at
// construction, embedding similarities are memoized in a bounded sharded
// cache, and QFG scoring probes an immutable interned-ID snapshot with
// zero locking. There is one retrieval path and one scoring path; the
// package tests pin them to the references they replace — db's
// FindTextAttrs/FindNumericAttrs probes and qfg.Graph's Dice,
// Occurrences and Queries.
//
// Keyword carries the parser metadata M_k = (τ, ω, F, g) of §V-A;
// ParseSpec builds keyword lists from the compact "text:context[:op|:agg]"
// textual form the CLI and HTTP layers accept. Configuration is one ranked
// keyword→fragment mapping set; Options bundles κ, λ, obscurity and the
// ablation toggles.
package keyword
