package keyword

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
)

// Metadata is the parser metadata M_k = (τ, ω, F, g) accompanying a keyword.
type Metadata struct {
	// Context is τ: the clause the mapped fragment should live in.
	Context fragment.Context
	// Op is ω: the predicate comparison operator for numeric keywords
	// ("" defaults to "=").
	Op string
	// Aggs is F: aggregation functions to wrap the mapped attribute in,
	// outermost first (our subset uses at most one).
	Aggs []string
	// GroupBy is g: whether the mapped attribute should be grouped.
	GroupBy bool
}

// Keyword is one parsed NLQ keyword with its metadata.
type Keyword struct {
	Text string
	Meta Metadata
}

// Kind classifies a candidate mapping.
type Kind int

const (
	// KindRelation maps a keyword to a relation in the FROM clause.
	KindRelation Kind = iota
	// KindAttr maps a keyword to a (possibly aggregated) projection.
	KindAttr
	// KindPred maps a keyword to a value predicate in the WHERE clause.
	KindPred
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRelation:
		return "relation"
	case KindAttr:
		return "attribute"
	default:
		return "predicate"
	}
}

// Mapping is one candidate query fragment mapping m = (s, c, σ).
type Mapping struct {
	Keyword string
	Kind    Kind
	Rel     string
	Attr    string // empty for KindRelation
	Agg     string // aggregate for KindAttr ("" for none)
	GroupBy bool
	Op      string         // for KindPred
	Value   sqlparse.Value // for KindPred
	Sim     float64        // σ
}

// Qualified returns "rel.attr" for attribute/predicate mappings.
func (m Mapping) Qualified() string { return m.Rel + "." + m.Attr }

// Fragment renders the mapping as a query fragment at an obscurity level,
// for QFG lookups.
func (m Mapping) Fragment(ob fragment.Obscurity) fragment.Fragment {
	switch m.Kind {
	case KindRelation:
		return fragment.Relation(m.Rel)
	case KindAttr:
		return fragment.Attr(m.Qualified(), m.Agg)
	default:
		return fragment.Pred(m.Qualified(), m.Op, m.Value, ob)
	}
}

// String renders "keyword -> fragment (σ)".
func (m Mapping) String() string {
	return fmt.Sprintf("%s -> %s (%.3f)", m.Keyword, m.Fragment(fragment.Full), m.Sim)
}

// Configuration is a selection of one mapping per keyword (Definition 5)
// with its component scores.
type Configuration struct {
	Mappings []Mapping
	SimScore float64 // Scoreσ(φ): geometric mean of mapping similarities
	QFGScore float64 // ScoreQFG(φ): co-occurrence evidence from the log
	Score    float64 // λ·SimScore + (1−λ)·QFGScore
}

// Options configures a Mapper.
type Options struct {
	// K is κ: candidates kept per keyword after pruning. Default 5.
	K int
	// Lambda is λ: weight of the similarity score vs the log-driven score.
	// Default 0.8 (the paper's operating point).
	Lambda float64
	// Epsilon is the ε used for exact-match detection and as the score of
	// numeric predicates that select no rows. Default 0.02.
	Epsilon float64
	// Obscurity selects the fragment form used for QFG lookups.
	// Default NoConstOp (the paper's best performer).
	Obscurity fragment.Obscurity
	// MaxConfigurations caps the generated cartesian product. Default 5000.
	MaxConfigurations int
	// UseArithmeticMean switches Scoreσ from the geometric mean the paper
	// prefers (§V-C1) to an arithmetic mean, for the design ablation.
	UseArithmeticMean bool
	// IncludeFromInQFG includes FROM-context fragments in ScoreQFG pairs.
	// The paper excludes them (§V-C2) because attribute fragments already
	// force their relations, which would double-count evidence; this flag
	// exists for the design ablation.
	IncludeFromInQFG bool
}

// simCacheSize bounds the similarity memo cache (total entries across all
// shards, approximately — see simCache).
const simCacheSize = 65536

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 5
	}
	if o.Lambda == 0 {
		o.Lambda = 0.8
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.02
	}
	if o.MaxConfigurations <= 0 {
		o.MaxConfigurations = 5000
	}
	return o
}

// Mapper executes MAPKEYWORDS against one database.
//
// A Mapper is safe for concurrent use: the database, model, QFG and
// candidate index are read-only after construction, and the similarity memo
// cache is internally synchronized. The bound database must not be mutated
// while the Mapper is in use (the precomputed index would go stale).
type Mapper struct {
	db    *db.Database
	model *embedding.Model
	// snap is the compiled QFG snapshot configurations are ranked
	// against; nil disables log-driven scoring (pure baseline).
	snap *qfg.Snapshot
	opts Options
	// index precomputes candidate retrieval structures.
	index *candidateIndex
	// cache memoizes model.Similarity calls.
	cache *simCache
}

// NewMapper builds a Mapper that ranks against one fixed QFG snapshot. A
// nil snap yields the baseline behavior: ScoreQFG ≡ 0 and λ forced to 1,
// exactly the Pipeline system of §VII-A2. With a snapshot, fragment
// lookups always use the snapshot's own obscurity level —
// Options.Obscurity is overridden, because querying a NoConstOp log with
// Full fragments (or vice versa) can never match.
//
// NewMapper precomputes an inverted index over schema names and column
// values, so candidate retrieval never scans tables per call, and installs
// a bounded memo cache for embedding similarities.
func NewMapper(database *db.Database, model *embedding.Model, snap *qfg.Snapshot, opts Options) *Mapper {
	if snap != nil {
		opts.Obscurity = snap.Obscurity()
	}
	return &Mapper{
		db:    database,
		model: model,
		snap:  snap,
		opts:  opts.withDefaults(),
		index: buildCandidateIndex(database),
		cache: newSimCache(simCacheSize),
	}
}

// WithSnapshot returns a shallow copy of the Mapper ranking against a
// different snapshot, sharing the candidate index, similarity cache,
// database and model (all safe for concurrent use). A serving engine uses
// it to follow a republished log without rebuilding the index. The
// snapshot must be of the same obscurity lineage as the Mapper was built
// with.
func (m *Mapper) WithSnapshot(snap *qfg.Snapshot) *Mapper {
	c := *m
	c.snap = snap
	return &c
}

// similarity scores two phrases through the bounded memo cache.
// Model.Similarity is symmetric and deterministic, so cached values are
// exact.
func (m *Mapper) similarity(a, b string) float64 {
	k := makeSimKey(a, b)
	if v, ok := m.cache.get(k); ok {
		return v
	}
	v := m.model.Similarity(a, b)
	m.cache.put(k, v)
	return v
}

// CallOptions are per-request overrides of a Mapper's construction-time
// Options; the zero value changes nothing. They let one shared Mapper
// serve requests with different budgets without being rebuilt.
type CallOptions struct {
	// K overrides κ, the candidates kept per keyword after pruning
	// (0 = the Mapper's configured value).
	K int
	// MaxConfigurations overrides the enumeration cap (0 = configured).
	MaxConfigurations int
	// TopK, when positive, bounds the returned configurations to the best
	// TopK — exactly the prefix the fully-sorted list would have, ties
	// resolved by enumeration order just as the stable sort resolves them.
	// The enumeration then keeps a bounded selection instead of
	// materializing and sorting the whole cartesian product (0 = all).
	TopK int
	// Obscurity asserts the fragment obscurity level the caller expects.
	// The level is baked into the compiled QFG, so a mismatch is an
	// ObscurityMismatchError rather than a silent rescoring; with no QFG
	// it selects the fragment form of the returned mappings.
	Obscurity *fragment.Obscurity
}

// ObscurityMismatchError reports a CallOptions.Obscurity assertion that
// names a level the Mapper's QFG was not mined at.
type ObscurityMismatchError struct {
	Want, Have fragment.Obscurity
}

func (e *ObscurityMismatchError) Error() string {
	return fmt.Sprintf("keyword: obscurity %v requested but the query log was mined at %v", e.Want, e.Have)
}

// MapKeywords implements Algorithm 1 with no cancellation and the
// Mapper's configured options; see MapKeywordsCtx.
func (m *Mapper) MapKeywords(keywords []Keyword) ([]Configuration, error) {
	return m.MapKeywordsCtx(context.Background(), keywords, CallOptions{})
}

// MapKeywordsCtx implements Algorithm 1: candidate retrieval,
// scoring/pruning, and configuration generation. It returns
// configurations sorted by descending Score.
//
// ctx is checked between keywords during candidate scoring and
// periodically inside the configuration enumeration, so a canceled
// request (or an expired deadline) aborts the cartesian product
// mid-flight instead of running it to completion; the wrapped ctx error
// is returned.
//
// The returned configurations share one backing array for their Mappings
// (allocated once per call rather than once per configuration), so
// retaining a single Configuration past the call keeps the whole
// enumeration reachable; callers that hold onto individual configurations
// long-term should copy the Mappings slice they keep.
func (m *Mapper) MapKeywordsCtx(ctx context.Context, keywords []Keyword, co CallOptions) ([]Configuration, error) {
	if len(keywords) == 0 {
		return nil, fmt.Errorf("keyword: no keywords")
	}
	opts, err := m.requestOptions(co)
	if err != nil {
		return nil, err
	}
	sc := mapScratchPool.Get().(*mapScratch)
	defer sc.release()
	sc.grab(len(keywords))
	perKeyword := sc.perKeyword
	for i, kw := range keywords {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("keyword: mapping canceled: %w", err)
		}
		cands := m.keywordCands(kw, sc.cands[i][:0])
		sc.cands[i] = cands // retain (possibly regrown) buffer for reuse
		scored := m.scoreAndPrune(kw, cands, opts)
		if len(scored) == 0 {
			return nil, fmt.Errorf("keyword: no candidate mappings for %q", kw.Text)
		}
		perKeyword[i] = scored
	}
	return m.genAndScoreConfigs(ctx, perKeyword, opts, co.TopK, sc)
}

// requestOptions resolves one request's effective Options from the
// Mapper's configuration plus per-call overrides, validating the
// obscurity assertion against the compiled QFG lineage.
func (m *Mapper) requestOptions(co CallOptions) (Options, error) {
	opts := m.opts
	if co.K > 0 {
		opts.K = co.K
	}
	if co.MaxConfigurations > 0 {
		opts.MaxConfigurations = co.MaxConfigurations
	}
	if co.Obscurity != nil {
		if m.snap != nil && *co.Obscurity != m.opts.Obscurity {
			return opts, &ObscurityMismatchError{Want: *co.Obscurity, Have: m.opts.Obscurity}
		}
		opts.Obscurity = *co.Obscurity
	}
	return opts, nil
}

// ---------------------------------------------------------------------------
// Algorithm 2: candidate retrieval.

// keywordCands maps one keyword to its unscored candidates, appending into
// buf (pass buf[:0] to reuse a pooled buffer across calls). Retrieval goes
// through the precomputed candidate index.
func (m *Mapper) keywordCands(kw Keyword, buf []Mapping) []Mapping {
	out := buf
	if num, ok := extractNumber(kw.Text); ok {
		op := kw.Meta.Op
		if op == "" {
			op = "="
		}
		for _, match := range m.index.findNumericAttrs(num, op) {
			out = append(out, Mapping{
				Keyword: kw.Text,
				Kind:    KindPred,
				Rel:     match.rel,
				Attr:    match.attr,
				Op:      op,
				Value:   sqlparse.Value{Kind: sqlparse.NumberVal, N: num},
			})
		}
		return out
	}
	switch kw.Meta.Context {
	case fragment.From:
		for _, rel := range m.index.fromRels {
			out = append(out, Mapping{Keyword: kw.Text, Kind: KindRelation, Rel: rel})
		}
	case fragment.Select:
		agg := ""
		if len(kw.Meta.Aggs) > 0 {
			agg = kw.Meta.Aggs[0]
		}
		for _, ra := range m.index.selectAttrs {
			out = append(out, Mapping{
				Keyword: kw.Text,
				Kind:    KindAttr,
				Rel:     ra.rel,
				Attr:    ra.attr,
				Agg:     agg,
				GroupBy: kw.Meta.GroupBy,
			})
		}
	default:
		// WHERE context: full-text search for matching text values (§V-A).
		const maxValuesPerAttr = 8
		for _, match := range m.index.findTextAttrs(kw.Text) {
			vals := match.values
			if len(vals) > maxValuesPerAttr {
				vals = m.bestValues(kw.Text, vals, maxValuesPerAttr)
			}
			for _, v := range vals {
				out = append(out, Mapping{
					Keyword: kw.Text,
					Kind:    KindPred,
					Rel:     match.rel,
					Attr:    match.attr,
					Op:      "=",
					Value:   sqlparse.Value{Kind: sqlparse.StringVal, S: v},
				})
			}
		}
	}
	return out
}

// bestValues keeps the n values most similar to the keyword.
func (m *Mapper) bestValues(keyword string, vals []string, n int) []string {
	type scored struct {
		v string
		s float64
	}
	ss := make([]scored, len(vals))
	for i, v := range vals {
		ss[i] = scored{v, m.similarity(keyword, v)}
	}
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].s > ss[j].s })
	out := make([]string, 0, n)
	for i := 0; i < n && i < len(ss); i++ {
		out = append(out, ss[i].v)
	}
	return out
}

// ---------------------------------------------------------------------------
// Algorithm 3: scoring and pruning.

// scoreAndPrune computes σ per candidate and applies the PRUNE procedure
// (see prune), reordering cands in place and returning a prefix of it.
func (m *Mapper) scoreAndPrune(kw Keyword, cands []Mapping, opts Options) []Mapping {
	num, hasNum := extractNumber(kw.Text)
	stext := kw.Text
	if hasNum {
		stext = stripNumber(kw.Text)
	}
	for i := range cands {
		c := &cands[i]
		if hasNum {
			// findNumericAttrs already guaranteed exec(c) ≠ ∅; simnum
			// reduces to simtext of the residual text against the
			// attribute label. An all-numeric keyword has no residual
			// text: score a neutral constant so log evidence decides.
			if strings.TrimSpace(stext) == "" {
				c.Sim = 0.5
			} else {
				c.Sim = m.similarity(stext, c.label())
			}
			_ = num
			continue
		}
		c.Sim = m.simText(kw.Text, *c)
	}
	return prune(cands, opts.K, opts.Epsilon)
}

// label is the human-vocabulary rendering of a mapping target for
// similarity comparison.
func (m Mapping) label() string {
	switch m.Kind {
	case KindRelation:
		return m.Rel
	case KindAttr:
		return m.Rel + " " + m.Attr
	default:
		return m.Rel + " " + m.Attr
	}
}

// simText scores a purely-textual keyword against a candidate. Relations
// and attributes compare against their schema names; text predicates
// compare against the matched value, with a discounted fallback to the
// attribute label so "papers about X" still prefers title-ish attributes.
func (m *Mapper) simText(keyword string, c Mapping) float64 {
	switch c.Kind {
	case KindRelation:
		return m.similarity(keyword, c.label())
	case KindAttr:
		s := m.similarity(keyword, c.label())
		// Default-projection prior: when a keyword names an entity without
		// distinguishing between its attributes ("journals", "businesses"),
		// prefer the relation's human-readable label column over siblings
		// like homepage. Capped below the exact-match threshold so the
		// prior can only break ties, never fabricate an exact match.
		if rel, ok := m.db.Schema().Relation(c.Rel); ok && rel.PrimaryTextAttribute() == c.Attr {
			s += 0.05
			if s > 0.97 {
				s = 0.97
			}
		}
		return s
	default:
		valueSim := m.similarity(keyword, c.Value.S)
		labelSim := 0.9 * m.similarity(keyword, c.label())
		if labelSim > valueSim {
			return labelSim
		}
		return valueSim
	}
}

// ---------------------------------------------------------------------------
// Configuration generation and ranking (§V-C).

// candID is a candidate mapping's interned fragment ID for snapshot-based
// QFG scoring; use marks candidates that participate in ScoreQFG pairs
// (relations are excluded unless IncludeFromInQFG).
type candID struct {
	id  uint32
	use bool
}

func (m *Mapper) genAndScoreConfigs(ctx context.Context, perKeyword [][]Mapping, opts Options, topK int, sc *mapScratch) ([]Configuration, error) {
	// Candidate fragments are translated to interned IDs here — once per
	// candidate, not once per probe of the cartesian product.
	snap := m.snap
	var perIDs [][]candID
	if snap != nil {
		ob := snap.Obscurity()
		perIDs = sc.perIDs
		for i, cands := range perKeyword {
			ids := sc.idRows[i]
			if cap(ids) < len(cands) {
				ids = make([]candID, len(cands))
				sc.idRows[i] = ids
			}
			ids = ids[:len(cands)]
			for j, mp := range cands {
				if mp.Kind == KindRelation && !opts.IncludeFromInQFG {
					ids[j] = candID{}
					continue
				}
				ids[j] = candID{id: snap.Lookup(mp.Fragment(ob)), use: true}
			}
			perIDs[i] = ids
		}
	}

	total := 1
	for _, cands := range perKeyword {
		total *= len(cands)
		if total > opts.MaxConfigurations {
			total = opts.MaxConfigurations
			break
		}
	}
	current := sc.current
	curIDs := sc.curIDs
	canceled := false
	emitted := 0

	if topK > 0 {
		// Bounded selection: score each enumerated configuration into the
		// pooled top-k selector instead of materializing the product. The
		// result is provably the same prefix the sort-everything path below
		// returns (see topkSel), but the working set is k configurations
		// and the only allocations are the caller-owned result arrays.
		k := topK
		if k > total {
			k = total
		}
		sel := &sc.sel
		sel.reset(k, len(perKeyword))
		var rec func(i int)
		rec = func(i int) {
			if canceled || emitted >= opts.MaxConfigurations {
				return
			}
			if i == len(perKeyword) {
				// Same cancellation cadence as the full path: poll every 64
				// enumerated configurations.
				if emitted&63 == 63 && ctx.Err() != nil {
					canceled = true
					return
				}
				cfg := Configuration{Mappings: current}
				m.scoreConfig(&cfg, snap, curIDs, opts)
				sel.offer(cfg, emitted)
				emitted++
				return
			}
			for ci := range perKeyword[i] {
				current[i] = perKeyword[i][ci]
				if perIDs != nil {
					curIDs[i] = perIDs[i][ci]
				}
				rec(i + 1)
			}
		}
		rec(0)
		if canceled {
			return nil, fmt.Errorf("keyword: configuration enumeration canceled after %d configurations: %w", emitted, ctx.Err())
		}
		return sel.take(), nil
	}

	configs := make([]Configuration, 0, total)
	// One backing array serves every configuration's Mappings slice, sized
	// so the appends below never regrow it mid-enumeration.
	backing := make([]Mapping, 0, total*len(perKeyword))
	var rec func(i int)
	rec = func(i int) {
		if canceled || len(configs) >= opts.MaxConfigurations {
			return
		}
		if i == len(perKeyword) {
			// Poll cancellation every 64 enumerated configurations: cheap
			// enough to be invisible on the hot path, frequent enough that a
			// canceled request abandons a large cartesian product mid-flight.
			if len(configs)&63 == 63 && ctx.Err() != nil {
				canceled = true
				return
			}
			start := len(backing)
			backing = append(backing, current...)
			cfg := Configuration{Mappings: backing[start:len(backing):len(backing)]}
			m.scoreConfig(&cfg, snap, curIDs, opts)
			configs = append(configs, cfg)
			return
		}
		for ci := range perKeyword[i] {
			current[i] = perKeyword[i][ci]
			if perIDs != nil {
				curIDs[i] = perIDs[i][ci]
			}
			rec(i + 1)
		}
	}
	rec(0)
	if canceled {
		return nil, fmt.Errorf("keyword: configuration enumeration canceled after %d configurations: %w", len(configs), ctx.Err())
	}
	sort.SliceStable(configs, func(i, j int) bool { return configs[i].Score > configs[j].Score })
	return configs, nil
}

// scoreConfig fills the three scores of a configuration. ids carries the
// interned fragment ID per mapping when a snapshot is in use.
func (m *Mapper) scoreConfig(cfg *Configuration, snap *qfg.Snapshot, ids []candID, opts Options) {
	// Scoreσ: geometric mean of mapping similarities (§V-C1 prefers the
	// geometric mean to dampen per-keyword score-range variation; the
	// arithmetic variant is kept for the design ablation).
	if opts.UseArithmeticMean {
		sum := 0.0
		for _, mp := range cfg.Mappings {
			sum += mp.Sim
		}
		cfg.SimScore = sum / float64(len(cfg.Mappings))
	} else {
		logSum := 0.0
		for _, mp := range cfg.Mappings {
			s := mp.Sim
			if s <= 0 {
				s = 1e-9
			}
			logSum += math.Log(s)
		}
		cfg.SimScore = math.Exp(logSum / float64(len(cfg.Mappings)))
	}

	// ScoreQFG: geometric mean of Dice over pairs of non-FROM fragments
	// (§V-C2 excludes relations — they are redundant with the attributes
	// that force them, and join inference handles them separately):
	// interned IDs against CSR arrays, no locks, no hashing.
	if snap != nil {
		m.scoreQFGSnapshot(cfg, snap, ids)
	}

	lambda := opts.Lambda
	if m.snap == nil {
		lambda = 1
	}
	cfg.Score = lambda*cfg.SimScore + (1-lambda)*cfg.QFGScore
}

// scoreQFGSnapshot computes ScoreQFG with interned-ID probes against the
// immutable snapshot. Pairs are visited in mapping order (i < j), the same
// order a Graph.Dice recomputation over the configuration's fragments
// uses, so the floating-point accumulation is bit-identical to it.
func (m *Mapper) scoreQFGSnapshot(cfg *Configuration, snap *qfg.Snapshot, ids []candID) {
	nqf, pairs := 0, 0
	diceLog := 0.0
	zero := false
	soleID := fragment.NoID
	for i := 0; i < len(ids); i++ {
		if !ids[i].use {
			continue
		}
		nqf++
		soleID = ids[i].id
		for j := i + 1; j < len(ids); j++ {
			if !ids[j].use {
				continue
			}
			d := snap.DiceID(ids[i].id, ids[j].id)
			pairs++
			if d <= 0 {
				zero = true
				continue
			}
			diceLog += math.Log(d)
		}
	}
	switch {
	case pairs == 0 && nqf == 1:
		// A single non-relation fragment has no pairs; fall back to its
		// marginal evidence: relative frequency in the log.
		if q := snap.Queries(); q > 0 {
			cfg.QFGScore = float64(snap.OccurrencesID(soleID)) / float64(q)
		}
	case pairs == 0:
		cfg.QFGScore = 0
	case zero:
		cfg.QFGScore = 0
	default:
		cfg.QFGScore = math.Exp(diceLog / float64(pairs))
	}
}

// ---------------------------------------------------------------------------
// Small text helpers.

// extractNumber returns the first numeric token in s.
func extractNumber(s string) (float64, bool) {
	for _, tok := range strings.Fields(s) {
		if n, ok := parseNumber(tok); ok {
			return n, true
		}
	}
	return 0, false
}

// stripNumber removes numeric tokens from s.
func stripNumber(s string) string {
	var out []string
	for _, tok := range strings.Fields(s) {
		if _, ok := parseNumber(tok); !ok {
			out = append(out, tok)
		}
	}
	return strings.Join(out, " ")
}

// parseNumber reads one whitespace-separated token, less surrounding
// punctuation, as a finite number. Tokens strconv reads as ±Inf or NaN
// ("inf", "Infinity", a name "Nan") are words.
func parseNumber(tok string) (float64, bool) {
	n, err := strconv.ParseFloat(strings.Trim(tok, ",.;:!?"), 64)
	return n, err == nil && !math.IsInf(n, 0) && !math.IsNaN(n)
}
