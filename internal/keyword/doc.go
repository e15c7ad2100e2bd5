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
// a WithSnapshot copy sharing the candidate index.
//
// A Mapper is safe for concurrent use: candidate retrieval goes through an
// inverted index over schema names and column values precomputed at
// construction, simtext (Algorithm 3) runs over the index's interned token
// vocabulary (embedding.Vocab) with no cache, and QFG scoring probes an
// immutable interned-ID snapshot with zero locking. There is one retrieval
// path and one scoring path. The candidate index is the only
// implementation of Algorithm 2's probes (findTextAttrs,
// findNumericAttrs); the database stores rows only. The package tests pin
// every path to plain references kept in the tests — the probes answered
// by scanning the rows, every σ computed by embedding.Model.Similarity on
// the phrases' text, and Dice, Occurrences and Queries recomputed from
// fragment-keyed counts of the log.
//
// Nothing on a miss sorts more than it keeps. A full-text probe merges the
// sorted value-ID posting lists of the index (a union per query stem,
// intersected across stems) with no set and no final sort. An attribute
// matching more than eight values keeps the eight most similar by bounded
// insertion, in stable-sort order. PRUNE (§V-B) selects the
// top κ per keyword by bounded insertion into the pooled candidate buffer,
// in the order a stable sort of all candidates would give; that sort plus
// cut stays in the tests as the selection's oracle. Configurations are
// ranked by the same kind of bounded selection (topkSel) when the caller
// wants only the best few.
//
// Keyword carries the parser metadata M_k = (τ, ω, F, g) of §V-A;
// ParseSpec builds keyword lists from the compact "text:context[:op|:agg]"
// textual form the CLI and HTTP layers accept. Configuration is one ranked
// keyword→fragment mapping set; Options bundles κ, λ, obscurity and the
// ablation toggles.
package keyword
