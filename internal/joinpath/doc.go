// Package joinpath implements Templar's join path inference (paper §VI):
// given a bag of relations known to be part of the SQL translation, find
// the most likely join paths over the schema graph.
//
// Join path generation is modeled as the Steiner tree problem and solved
// with the classic KMB approximation (Kou, Markowsky, Berman 1981 — the
// paper's reference [21]). Edge weights are either uniform (the baseline:
// minimal number of join edges, i.e. the shortest join path) or log-driven:
//
//	wL(v1, v2) = 1 − Dice(q(v1), q(v2))
//
// so that relation pairs frequently joined in the SQL query log become
// cheap to traverse (§VI-A2).
//
// Self-joins — a bag containing the same relation more than once — are
// handled by forking the schema graph (Algorithm 4): the duplicated
// relation and everything that references it are cloned, with the fork
// terminating at FK-PK edges pointing away from the clone, which reattach
// to the shared graph (Figure 4).
//
// # Entry points
//
// NewGenerator precomputes the weighted relation-instance graph once per
// schema and weight function; Infer then answers one relation bag. A
// Generator is safe for any number of concurrent callers: duplicate-free
// bags read the shared graph, and a self-join bag forks a private
// copy-on-write view of it. LogWeights derives the log-driven weight
// function from anything exposing Dice over relation pairs (a
// qfg.Snapshot — with live logs, weights are baked from the current
// snapshot at engine-build time, see templar.System). CountWeights is the
// raw-co-occurrence ablation; UniformWeights is the shortest-path
// baseline. Path carries the inferred join edges with their Score and the
// Goodness value the NLIDB ranking blends in.
//
// # A function of the multiset
//
// INFERJOINS is defined over a bag, so the answer depends on the multiset
// alone: Infer sorts the bag once, and the sorted bag is both the key of
// the per-Generator result cache and the input of the Steiner search. Any
// ordering of one multiset, on a cold or a warm cache, returns the same
// ranked paths.
//
// # The search
//
// Every edge of the relation-instance graph has a dense integer ID (its
// index in the graph's edge table, which records its endpoints lo < hi,
// weight, FK and FK side). Dijkstra records predecessor edge IDs; an
// alternative path is the search re-run with one edge ID banned; and KMB
// steps 3–5 (the union of the terminal-pair shortest paths, Kruskal over
// it, and pruning of non-terminal leaves) run on pooled per-edge and
// per-vertex slices. Edges are ordered by (weight, lo, hi), which fixes the
// Kruskal order, the order in which TotalWeight is summed, and the order
// of a Path's Edges. TestInferDifferential holds this search to the
// original string-keyed implementation, kept in the tests as the oracle.
package joinpath
