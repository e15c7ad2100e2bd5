package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"templar/internal/datasets"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/sqlparse"
	"templar/internal/xrand"
	"templar/pkg/api"
)

// Op is one request kind in the synthesized mix, named after its v2 route.
type Op string

// The five operation kinds a workload interleaves.
const (
	OpMapKeywords Op = "map-keywords"
	OpInferJoins  Op = "infer-joins"
	OpTranslate   Op = "translate"
	OpLogAppend   Op = "log"
	// OpFeedback is a translate tagged with a deterministic request ID
	// followed by a verdict on what it served — the learning loop.
	OpFeedback Op = "feedback"
)

// Mix weights the operation kinds of a synthesized stream. Weights are
// relative integers (a zero weight drops the operation entirely); the
// remaining fields shape the requests themselves.
type Mix struct {
	// MapKeywords, InferJoins, Translate and LogAppend are the relative
	// frequencies of the four operations.
	MapKeywords int `json:"map_keywords"`
	InferJoins  int `json:"infer_joins"`
	Translate   int `json:"translate"`
	LogAppend   int `json:"log_append"`
	// Feedback is the relative frequency of translate-then-verdict pairs
	// (accept/reject/correct at seeded ratios); 0 in the default mix, so
	// feedback traffic is always an explicit opt-in.
	Feedback int `json:"feedback,omitempty"`
	// SessionFraction is the fraction of log appends folded as ordered
	// user sessions instead of independent entries, in [0, 1].
	SessionFraction float64 `json:"session_fraction"`
	// TranslateBatchMax bounds the per-request translate batch size
	// (drawn uniformly from [1, max]).
	TranslateBatchMax int `json:"translate_batch_max"`
	// LogBatchMax bounds the per-append batch size (drawn uniformly from
	// [1, max]; sessions draw from [2, max] since a session needs order).
	LogBatchMax int `json:"log_batch_max"`
}

// DefaultMix is a read-heavy serving profile: mostly keyword mapping and
// join inference, some full translations, a trickle of log appends (the
// paper's serving story: many reads folding occasional user queries back
// into the log).
func DefaultMix() Mix {
	return Mix{
		MapKeywords:       45,
		InferJoins:        25,
		Translate:         20,
		LogAppend:         10,
		SessionFraction:   0.25,
		TranslateBatchMax: 3,
		LogBatchMax:       4,
	}
}

// withDefaults fills the shape knobs a zero-ish Mix leaves unset.
func (m Mix) withDefaults() Mix {
	if m.MapKeywords <= 0 && m.InferJoins <= 0 && m.Translate <= 0 && m.LogAppend <= 0 && m.Feedback <= 0 {
		d := DefaultMix()
		m.MapKeywords, m.InferJoins, m.Translate, m.LogAppend = d.MapKeywords, d.InferJoins, d.Translate, d.LogAppend
	}
	if m.TranslateBatchMax <= 0 {
		m.TranslateBatchMax = DefaultMix().TranslateBatchMax
	}
	if m.LogBatchMax <= 0 {
		m.LogBatchMax = DefaultMix().LogBatchMax
	}
	return m
}

// total returns the summed operation weights.
func (m Mix) total() int {
	return m.MapKeywords + m.InferJoins + m.Translate + m.Feedback + m.LogAppend
}

// ParseMix parses the CLI mix syntax "map=45,infer=25,translate=20,log=10"
// into the default mix with the named weights overridden. Unknown keys and
// negative weights are errors; omitted keys keep their default.
func ParseMix(s string) (Mix, error) {
	m := DefaultMix()
	if strings.TrimSpace(s) == "" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return Mix{}, fmt.Errorf("workload: malformed mix term %q (want key=weight)", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(kv[1]))
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("workload: bad weight in %q (want a non-negative integer)", part)
		}
		switch strings.ToLower(strings.TrimSpace(kv[0])) {
		case "map", "map-keywords":
			m.MapKeywords = w
		case "infer", "infer-joins":
			m.InferJoins = w
		case "translate":
			m.Translate = w
		case "log", "log-append":
			m.LogAppend = w
		case "feedback":
			m.Feedback = w
		default:
			return Mix{}, fmt.Errorf("workload: unknown mix key %q (want map, infer, translate, feedback or log)", kv[0])
		}
	}
	if m.total() == 0 {
		return Mix{}, fmt.Errorf("workload: mix %q zeroes every operation", s)
	}
	return m, nil
}

// Request is one synthesized call: an operation against a dataset with
// exactly one of the payload fields set (matching Op).
type Request struct {
	// Seq is the request's position in its stream, starting at 0.
	Seq int `json:"seq"`
	// Op is the operation kind; Dataset the target tenant.
	Op      Op     `json:"op"`
	Dataset string `json:"dataset"`

	MapKeywords *api.MapKeywordsRequest `json:"map_keywords,omitempty"`
	InferJoins  *api.InferJoinsRequest  `json:"infer_joins,omitempty"`
	Translate   *api.TranslateRequest   `json:"translate,omitempty"`
	LogAppend   *api.LogAppendRequest   `json:"log_append,omitempty"`
	Feedback    *FeedbackCall           `json:"feedback,omitempty"`
}

// FeedbackCall is one synthesized learning-loop interaction: a translate
// tagged with a deterministic request ID, then a verdict on what it
// served. The verdict fields are baked into the stream at generation
// time, so the fingerprint pins the whole interaction.
type FeedbackCall struct {
	// RequestID tags the translate (via the SDK's WithRequestID) and
	// references it in the verdict; "wl-<seed>-<seq>" keeps IDs unique per
	// stream and reproducible across runs.
	RequestID string                `json:"request_id"`
	Translate *api.TranslateRequest `json:"translate"`
	// Verdict is one of the api.Verdict* constants; CorrectedSQL is drawn
	// from the profile's gold log for corrections.
	Verdict      string `json:"verdict"`
	CorrectedSQL string `json:"corrected_sql,omitempty"`
	Weight       int    `json:"weight,omitempty"`
}

// Profile is the request material mined from one dataset: everything a
// Generator draws from when synthesizing requests against that tenant.
type Profile struct {
	// Name is the tenant the requests target.
	Name string
	// Keywords are the benchmark tasks' parsed keywords in wire shape,
	// the inputs for map-keywords and translate requests.
	Keywords []api.KeywordsInput
	// RelationBags are the relation multisets of the gold SQL queries
	// (duplicates preserved — self-joins fork), the inputs for
	// infer-joins requests. Only bags with at least two relation
	// instances are kept (single-relation inference is a no-op).
	RelationBags [][]string
	// SQL is the gold SQL text, the material for live log appends.
	SQL []string
}

// MineProfile extracts a request profile from one benchmark dataset. The
// three SQL logs the synthesizer mines are the datasets' gold-SQL
// workloads — the same logs the serving engines are trained on, so the
// synthesized traffic matches what a production log would look like.
func MineProfile(ds *datasets.Dataset) (*Profile, error) {
	p := &Profile{Name: ds.Name}
	for _, task := range ds.Tasks {
		p.Keywords = append(p.Keywords, wireKeywords(task.Keywords))
		q, err := sqlparse.Parse(task.Gold)
		if err != nil {
			return nil, fmt.Errorf("workload: %s: %w", task.ID, err)
		}
		if bag := q.Relations(); len(bag) >= 2 {
			p.RelationBags = append(p.RelationBags, bag)
		}
		p.SQL = append(p.SQL, task.Gold)
	}
	if len(p.Keywords) == 0 || len(p.SQL) == 0 {
		return nil, fmt.Errorf("workload: dataset %s has no tasks to mine", ds.Name)
	}
	return p, nil
}

// MineProfiles mines a profile per dataset name via datasets.ByName.
func MineProfiles(names []string) ([]*Profile, error) {
	out := make([]*Profile, 0, len(names))
	for _, name := range names {
		ds, ok := datasets.ByName(name)
		if !ok {
			return nil, fmt.Errorf("workload: unknown dataset %q", name)
		}
		p, err := MineProfile(ds)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// wireKeywords converts engine keywords to the structured wire form.
func wireKeywords(kws []keyword.Keyword) api.KeywordsInput {
	out := make([]api.Keyword, len(kws))
	for i, kw := range kws {
		kj := api.Keyword{Text: kw.Text, Op: kw.Meta.Op, GroupBy: kw.Meta.GroupBy}
		switch kw.Meta.Context {
		case fragment.Select:
			kj.Context = "select"
		case fragment.From:
			kj.Context = "from"
		default:
			kj.Context = "where"
		}
		if len(kw.Meta.Aggs) > 0 {
			kj.Agg = kw.Meta.Aggs[0]
		}
		out[i] = kj
	}
	return api.KeywordsInput{Keywords: out}
}

// ---------------------------------------------------------------------------
// Deterministic stream synthesis.

// Generator synthesizes a deterministic request stream over the shared
// xorshift64* PRNG (internal/xrand — the same recurrence dataset
// generation and eval's folds use). It is not safe for concurrent use:
// generate the stream up front (Generate) and share the resulting
// slice, which is how Run keeps the stream reproducible regardless of
// worker scheduling.
type Generator struct {
	profiles []*Profile
	mix      Mix
	seed     uint64
	rng      *xrand.Rand
	seq      int
}

// NewGenerator builds a generator over the given profiles. The stream is
// fully determined by (profiles, mix, seed).
func NewGenerator(profiles []*Profile, mix Mix, seed uint64) (*Generator, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("workload: no dataset profiles")
	}
	mix = mix.withDefaults()
	if mix.total() <= 0 {
		return nil, fmt.Errorf("workload: mix has no positive weights")
	}
	if mix.SessionFraction < 0 || mix.SessionFraction > 1 {
		return nil, fmt.Errorf("workload: session fraction %v outside [0, 1]", mix.SessionFraction)
	}
	return &Generator{profiles: profiles, mix: mix, seed: seed, rng: xrand.New(seed)}, nil
}

// Seed returns the stream seed the generator was built with.
func (g *Generator) Seed() uint64 { return g.seed }

// Mix returns the effective (defaulted) mix.
func (g *Generator) Mix() Mix { return g.mix }

// Next synthesizes the next request of the stream.
func (g *Generator) Next() Request {
	p := g.profiles[g.rng.Intn(len(g.profiles))]
	req := Request{Seq: g.seq, Dataset: p.Name}
	g.seq++

	w := g.rng.Intn(g.mix.total())
	switch {
	case w < g.mix.MapKeywords:
		req.Op = OpMapKeywords
		req.MapKeywords = &api.MapKeywordsRequest{
			KeywordsInput: p.Keywords[g.rng.Intn(len(p.Keywords))],
			TopK:          1 + g.rng.Intn(5),
		}
	case w < g.mix.MapKeywords+g.mix.InferJoins && len(p.RelationBags) > 0:
		req.Op = OpInferJoins
		req.InferJoins = &api.InferJoinsRequest{
			Relations: p.RelationBags[g.rng.Intn(len(p.RelationBags))],
			TopK:      1 + g.rng.Intn(3),
		}
	case w < g.mix.MapKeywords+g.mix.InferJoins+g.mix.Translate || len(p.SQL) == 0:
		req.Op = OpTranslate
		n := 1 + g.rng.Intn(g.mix.TranslateBatchMax)
		tr := &api.TranslateRequest{Queries: make([]api.KeywordsInput, n)}
		for i := range tr.Queries {
			tr.Queries[i] = p.Keywords[g.rng.Intn(len(p.Keywords))]
		}
		req.Translate = tr
	case w < g.mix.MapKeywords+g.mix.InferJoins+g.mix.Translate+g.mix.Feedback:
		req.Op = OpFeedback
		fc := &FeedbackCall{
			RequestID: fmt.Sprintf("wl-%d-%d", g.seed, req.Seq),
			Translate: &api.TranslateRequest{
				Queries: []api.KeywordsInput{p.Keywords[g.rng.Intn(len(p.Keywords))]},
			},
		}
		// Seeded verdict ratios: half accepted, a sixth rejected, a third
		// corrected with gold SQL — enough of each to exercise every
		// ledger transition under concurrency.
		switch v := g.rng.Intn(6); {
		case v < 3:
			fc.Verdict = api.VerdictAccepted
			fc.Weight = 1 + g.rng.Intn(3)
		case v < 4:
			fc.Verdict = api.VerdictRejected
		default:
			fc.Verdict = api.VerdictCorrected
			fc.CorrectedSQL = p.SQL[g.rng.Intn(len(p.SQL))]
			fc.Weight = 1 + g.rng.Intn(2)
		}
		req.Feedback = fc
	default:
		req.Op = OpLogAppend
		session := g.rng.Float01() < g.mix.SessionFraction && len(p.SQL) >= 2
		n := 1 + g.rng.Intn(g.mix.LogBatchMax)
		if n > len(p.SQL) {
			// A short SQL log caps the batch: sessions window the log and
			// must not index past it.
			n = len(p.SQL)
		}
		la := &api.LogAppendRequest{}
		if session {
			// A session is an ordered window of the gold log: consecutive
			// queries, as one user refining an exploration would issue them.
			if n < 2 {
				n = 2
			}
			start := g.rng.Intn(len(p.SQL) - n + 1)
			for i := 0; i < n; i++ {
				la.Queries = append(la.Queries, api.LogEntry{SQL: p.SQL[start+i]})
			}
			la.Session = true
			la.Decay = 0.5
		} else {
			for i := 0; i < n; i++ {
				la.Queries = append(la.Queries, api.LogEntry{
					SQL:   p.SQL[g.rng.Intn(len(p.SQL))],
					Count: 1 + g.rng.Intn(3),
				})
			}
		}
		req.LogAppend = la
	}
	return req
}

// Generate synthesizes the next n requests of the stream.
func (g *Generator) Generate(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Fingerprint hashes a request stream into a stable hex digest: two runs
// with the same (profiles, mix, seed) produce equal fingerprints, which is
// the bit-reproducibility contract cmd/templar-load -print exposes and the
// determinism tests pin.
func Fingerprint(reqs []Request) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range reqs {
		// Encode canonically (struct field order is fixed); a failure here
		// is impossible for these types.
		if err := enc.Encode(r); err != nil {
			panic("workload: fingerprint encoding: " + err.Error())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
