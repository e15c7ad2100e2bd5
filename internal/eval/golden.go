// Golden end-to-end corpora: per-dataset, per-obscurity-level pinned
// answers (ranked keyword-mapping configurations, inferred join paths,
// full translations) produced by driving the complete templar.System the
// serving layer uses. The committed files under testdata/golden are the
// semantic regression baseline every later hot-path change is held to: a
// "faster" ranking path that reorders configurations, perturbs a score
// bit, or changes a winning join tree fails golden-check byte-for-byte.
//
// Regenerate with `templar-eval -golden internal/eval/testdata/golden`
// (or `make golden`) — but only commit a diff when the semantic change is
// intended; see docs/TESTING.md for how to tell a legitimate golden diff
// from a regression.

package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
	"templar/internal/templar"
	"templar/internal/xrand"
)

// GoldenOptions pins every input that shapes a corpus; the values are
// recorded in the file header so a regeneration run can reproduce the
// committed corpus exactly.
type GoldenOptions struct {
	// TopConfigs is how many ranked configurations are pinned per task.
	TopConfigs int
	// MaxTasks caps how many tasks are pinned per corpus (a seeded
	// selection; 0 = all tasks).
	MaxTasks int
	// Seed drives the task selection shuffle.
	Seed uint64
	// K and Lambda are the engine operating point (κ, λ).
	K      int
	Lambda float64
}

// DefaultGoldenOptions is the committed corpora's operating point: the
// paper's default κ=5, λ=0.8, top-3 configurations, 24 tasks per corpus.
func DefaultGoldenOptions() GoldenOptions {
	return GoldenOptions{TopConfigs: 3, MaxTasks: 24, Seed: 1, K: 5, Lambda: 0.8}
}

func (o GoldenOptions) withDefaults() GoldenOptions {
	d := DefaultGoldenOptions()
	if o.TopConfigs <= 0 {
		o.TopConfigs = d.TopConfigs
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.K <= 0 {
		o.K = d.K
	}
	if o.Lambda == 0 {
		o.Lambda = d.Lambda
	}
	return o
}

// GoldenConfig is one pinned ranked configuration: the per-keyword
// mapped fragments (Full form, so values and operators are visible) and
// the three ranking scores.
type GoldenConfig struct {
	Fragments []string `json:"fragments"`
	SimScore  float64  `json:"sim_score"`
	QFGScore  float64  `json:"qfg_score"`
	Score     float64  `json:"score"`
}

// GoldenJoin is one pinned join inference: the mined relation bag and
// the winning path.
type GoldenJoin struct {
	Relations []string `json:"relations"`
	Path      []string `json:"path"`
	Edges     []string `json:"edges"`
	Weight    float64  `json:"weight"`
	Goodness  float64  `json:"goodness"`
}

// GoldenTask pins one task's end-to-end answers.
type GoldenTask struct {
	ID      string         `json:"id"`
	Configs []GoldenConfig `json:"configs"`
	// MapError records a keyword-mapping failure (some tasks are
	// deliberately unmappable at some operating points).
	MapError string      `json:"map_error,omitempty"`
	Join     *GoldenJoin `json:"join,omitempty"`
	// SQL/Score/Tie pin the full translation; TranslateError records an
	// engine refusal (also pinned — a refusal turning into an answer is
	// drift too).
	SQL            string  `json:"sql,omitempty"`
	Rendered       string  `json:"rendered,omitempty"`
	Score          float64 `json:"score,omitempty"`
	Tie            bool    `json:"tie,omitempty"`
	TranslateError string  `json:"translate_error,omitempty"`
}

// GoldenCorpus is one committed golden file: the generation inputs plus
// the pinned per-task answers, in task-ID order.
type GoldenCorpus struct {
	Dataset    string       `json:"dataset"`
	Obscurity  string       `json:"obscurity"`
	K          int          `json:"kappa"`
	Lambda     float64      `json:"lambda"`
	TopConfigs int          `json:"top_configs"`
	MaxTasks   int          `json:"max_tasks"`
	Seed       uint64       `json:"seed"`
	Tasks      []GoldenTask `json:"tasks"`
}

// BuildGolden drives the full serving engine — templar.NewLive over
// the dataset's complete gold-SQL log mined at the given obscurity level —
// through a seeded task selection and pins everything it answers.
func BuildGolden(ds *datasets.Dataset, ob fragment.Obscurity, opts GoldenOptions) (*GoldenCorpus, error) {
	opts = opts.withDefaults()
	entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
	for _, task := range ds.Tasks {
		q, err := sqlparse.Parse(task.Gold)
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %w", task.ID, err)
		}
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	graph, err := qfg.Build(entries, ob)
	if err != nil {
		return nil, err
	}
	sys := templar.NewLive(ds.DB, embedding.New(), graph, templar.Options{
		Keyword: keyword.Options{K: opts.K, Lambda: opts.Lambda, Obscurity: ob},
		LogJoin: true,
	})
	return ReplayGolden(ds, sys, ob, opts)
}

// ReplayGolden drives an EXISTING serving system through the same seeded
// task battery BuildGolden uses and pins its answers in the same
// byte-stable corpus form. This is the replication convergence gate's
// measuring stick: running it against a primary and a follower at the
// same applied WAL sequence must produce bit-identical bytes — any
// divergence in ranking, scoring or join choice shows up in the
// encoding. The obscurity argument labels the corpus (and selects which
// committed file the task selection is checked against); the system
// answers at whatever operating point it was built with.
func ReplayGolden(ds *datasets.Dataset, sys *templar.System, ob fragment.Obscurity, opts GoldenOptions) (*GoldenCorpus, error) {
	opts = opts.withDefaults()
	bags := make([][]string, len(ds.Tasks))
	for i, task := range ds.Tasks {
		q, err := sqlparse.Parse(task.Gold)
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %w", task.ID, err)
		}
		bags[i] = q.Relations()
	}

	corpus := &GoldenCorpus{
		Dataset:    ds.Name,
		Obscurity:  ob.String(),
		K:          opts.K,
		Lambda:     opts.Lambda,
		TopConfigs: opts.TopConfigs,
		MaxTasks:   opts.MaxTasks,
		Seed:       opts.Seed,
	}
	ctx := context.Background()
	for _, ti := range selectTasks(len(ds.Tasks), opts.MaxTasks, opts.Seed) {
		task := ds.Tasks[ti]
		gt := GoldenTask{ID: task.ID}

		configs, err := sys.MapKeywords(ctx, task.Keywords, &templar.CallOptions{TopK: opts.TopConfigs})
		if err != nil {
			gt.MapError = err.Error()
		}
		for _, cfg := range configs {
			gc := GoldenConfig{SimScore: cfg.SimScore, QFGScore: cfg.QFGScore, Score: cfg.Score}
			for _, mp := range cfg.Mappings {
				gc.Fragments = append(gc.Fragments, mp.Fragment(fragment.Full).String())
			}
			gt.Configs = append(gt.Configs, gc)
		}

		if len(bags[ti]) >= 2 {
			paths, err := sys.InferJoins(ctx, bags[ti], nil)
			if err == nil && len(paths) > 0 {
				gj := &GoldenJoin{
					Relations: bags[ti],
					Path:      paths[0].Relations,
					Weight:    paths[0].TotalWeight,
					Goodness:  paths[0].Goodness,
				}
				for _, e := range paths[0].Edges {
					gj.Edges = append(gj.Edges, e.String())
				}
				gt.Join = gj
			}
		}

		switch tr, err := sys.Translate(ctx, task.Keywords, nil); {
		case err != nil:
			gt.TranslateError = err.Error()
		default:
			gt.SQL = tr.SQL
			gt.Rendered = tr.Rendered
			gt.Score = tr.Score
			gt.Tie = tr.Tie
		}
		corpus.Tasks = append(corpus.Tasks, gt)
	}
	return corpus, nil
}

// selectTasks picks up to max task indexes with a seeded Fisher–Yates
// shuffle, then restores benchmark order so corpora read naturally and
// diffs stay local.
func selectTasks(n, max int, seed uint64) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if max <= 0 || max >= n {
		return idx
	}
	xrand.New(seed).Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	picked := append([]int(nil), idx[:max]...)
	for i := 1; i < len(picked); i++ {
		for j := i; j > 0 && picked[j] < picked[j-1]; j-- {
			picked[j], picked[j-1] = picked[j-1], picked[j]
		}
	}
	return picked
}

// GoldenFilename is the canonical corpus filename for a dataset + level
// ("mas_noconstop.golden.json").
func GoldenFilename(dataset string, ob fragment.Obscurity) string {
	return strings.ToLower(dataset) + "_" + strings.ToLower(ob.String()) + ".golden.json"
}

// EncodeGolden renders a corpus in the committed byte-stable form:
// two-space-indented JSON with fixed struct field order and a trailing
// newline. Scores are float64s encoded by Go's shortest-round-trip
// formatter, so any bitwise score change shows up in the bytes.
func EncodeGolden(c *GoldenCorpus) []byte {
	raw, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		// Statically impossible for these types.
		panic("eval: golden encoding: " + err.Error())
	}
	return append(raw, '\n')
}

// DecodeGolden parses a committed corpus.
func DecodeGolden(raw []byte) (*GoldenCorpus, error) {
	var c GoldenCorpus
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("eval: bad golden corpus: %w", err)
	}
	return &c, nil
}

// DiffGolden reports human-readable semantic differences between a
// committed corpus and a regenerated one, most significant first. A nil
// result means the corpora are semantically identical; the byte-level
// gate additionally pins the encoding.
func DiffGolden(want, got *GoldenCorpus) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	if want.Dataset != got.Dataset || want.Obscurity != got.Obscurity {
		add("corpus identity: %s/%s vs %s/%s", want.Dataset, want.Obscurity, got.Dataset, got.Obscurity)
	}
	if want.K != got.K || want.Lambda != got.Lambda || want.TopConfigs != got.TopConfigs ||
		want.MaxTasks != got.MaxTasks || want.Seed != got.Seed {
		add("generation options changed: %+v vs %+v",
			[]any{want.K, want.Lambda, want.TopConfigs, want.MaxTasks, want.Seed},
			[]any{got.K, got.Lambda, got.TopConfigs, got.MaxTasks, got.Seed})
	}
	if len(want.Tasks) != len(got.Tasks) {
		add("task count: %d vs %d", len(want.Tasks), len(got.Tasks))
		return out
	}
	for i := range want.Tasks {
		w, g := &want.Tasks[i], &got.Tasks[i]
		if w.ID != g.ID {
			add("task %d: id %s vs %s", i, w.ID, g.ID)
			continue
		}
		if len(w.Configs) != len(g.Configs) {
			add("%s: %d configurations vs %d", w.ID, len(w.Configs), len(g.Configs))
			continue
		}
		for ci := range w.Configs {
			wc, gc := &w.Configs[ci], &g.Configs[ci]
			if !equalStrings(wc.Fragments, gc.Fragments) {
				add("%s: config %d fragments %v vs %v", w.ID, ci, wc.Fragments, gc.Fragments)
			}
			if wc.Score != gc.Score || wc.SimScore != gc.SimScore || wc.QFGScore != gc.QFGScore {
				add("%s: config %d scores (%v,%v,%v) vs (%v,%v,%v)", w.ID, ci,
					wc.SimScore, wc.QFGScore, wc.Score, gc.SimScore, gc.QFGScore, gc.Score)
			}
		}
		if w.MapError != g.MapError {
			add("%s: map error %q vs %q", w.ID, w.MapError, g.MapError)
		}
		switch {
		case (w.Join == nil) != (g.Join == nil):
			add("%s: join presence changed", w.ID)
		case w.Join != nil:
			if !equalStrings(w.Join.Path, g.Join.Path) || !equalStrings(w.Join.Edges, g.Join.Edges) ||
				w.Join.Weight != g.Join.Weight || w.Join.Goodness != g.Join.Goodness {
				add("%s: join path %v (w=%v) vs %v (w=%v)", w.ID, w.Join.Path, w.Join.Weight, g.Join.Path, g.Join.Weight)
			}
		}
		if w.SQL != g.SQL || w.Rendered != g.Rendered || w.Score != g.Score || w.Tie != g.Tie ||
			w.TranslateError != g.TranslateError {
			add("%s: translation %q (score %v, tie %v, err %q) vs %q (score %v, tie %v, err %q)",
				w.ID, w.SQL, w.Score, w.Tie, w.TranslateError, g.SQL, g.Score, g.Tie, g.TranslateError)
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
