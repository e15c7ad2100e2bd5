package keyword_test

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/schema"
	"templar/internal/sqlparse"
)

// models are the two similarity models the paper's systems use: the
// embedding stand-in and the lexicon-only (NaLIR) matcher.
func models() map[string]*embedding.Model {
	return map[string]*embedding.Model{"full": embedding.New(), "lexicon-only": embedding.NewLexiconOnly()}
}

// TestInternedSimilarityMatchesModel holds the interned σ to
// Model.Similarity with != on float64: every keyword of every benchmark
// task (the keywords of the nine golden corpora among them), resolved as
// the mapper resolves it, against every relation label, attribute label
// and matched text value the candidate index yields, under both models.
func TestInternedSimilarityMatchesModel(t *testing.T) {
	for _, ds := range datasets.All() {
		for name, model := range models() {
			m := keyword.NewMapper(ds.DB, model, nil, keyword.Options{})
			pairs, values := 0, 0
			for _, task := range ds.Tasks {
				for _, kw := range task.Keywords {
					texts := []string{kw.Text}
					if _, ok := keyword.ExtractNumber(kw.Text); ok {
						texts = append(texts, keyword.StripNumber(kw.Text))
					}
					for _, text := range texts {
						for _, ps := range m.IndexSimilarities(text) {
							if want := model.Similarity(text, ps.Phrase); math.Float64bits(ps.Sim) != math.Float64bits(want) {
								t.Fatalf("%s %s %s: interned σ(%q, %q) = %v, Model.Similarity = %v", ds.Name, name, task.ID, text, ps.Phrase, ps.Sim, want)
							}
							pairs++
						}
						for _, match := range m.IndexTextAttrs(text) {
							values += len(match.Values)
						}
					}
				}
			}
			t.Logf("%s %s: %d pairs, %d of them matched values", ds.Name, name, pairs, values)
			if values == 0 {
				t.Fatalf("%s %s: no matched value was scored", ds.Name, name)
			}
		}
	}
}

// refCandidates is candidate retrieval and scoring as they were before
// the interned vocabulary, kept as the oracle of keywordCands: every σ is
// Model.Similarity on the text of the keyword and of the label or value,
// and an attribute's values are cut to the best eight by a stable sort of
// all of them.
func refCandidates(m *keyword.Mapper, g *schema.Graph, model *embedding.Model, kw keyword.Keyword) []keyword.Mapping {
	var out []keyword.Mapping
	split := func(q string) (string, string) {
		rel, attr, _ := strings.Cut(q, ".")
		return rel, attr
	}
	if n, ok := keyword.ExtractNumber(kw.Text); ok {
		op := kw.Meta.Op
		if op == "" {
			op = "="
		}
		stext := keyword.StripNumber(kw.Text)
		for _, match := range m.IndexNumericAttrs(n, op) {
			rel, attr := split(match.Attr)
			sim := 0.5
			if strings.TrimSpace(stext) != "" {
				sim = model.Similarity(stext, rel+" "+attr)
			}
			out = append(out, keyword.Mapping{Keyword: kw.Text, Kind: keyword.KindPred, Rel: rel, Attr: attr, Op: op,
				Value: sqlparse.Value{Kind: sqlparse.NumberVal, N: n}, Sim: sim})
		}
		return out
	}
	switch kw.Meta.Context {
	case fragment.From:
		for _, rel := range m.IndexFromRels() {
			out = append(out, keyword.Mapping{Keyword: kw.Text, Kind: keyword.KindRelation, Rel: rel, Sim: model.Similarity(kw.Text, rel)})
		}
	case fragment.Select:
		agg := ""
		if len(kw.Meta.Aggs) > 0 {
			agg = kw.Meta.Aggs[0]
		}
		for _, q := range m.IndexSelectAttrs() {
			rel, attr := split(q)
			s := model.Similarity(kw.Text, rel+" "+attr)
			if r, ok := g.Relation(rel); ok && r.PrimaryTextAttribute() == attr {
				s += 0.05
				if s > 0.97 {
					s = 0.97
				}
			}
			out = append(out, keyword.Mapping{Keyword: kw.Text, Kind: keyword.KindAttr, Rel: rel, Attr: attr, Agg: agg, GroupBy: kw.Meta.GroupBy, Sim: s})
		}
	default:
		for _, match := range m.IndexTextAttrs(kw.Text) {
			rel, attr := split(match.Attr)
			type scored struct {
				v   string
				sim float64
			}
			vals := make([]scored, len(match.Values))
			for i, v := range match.Values {
				vals[i] = scored{v, model.Similarity(kw.Text, v)}
			}
			if len(vals) > 8 {
				sort.SliceStable(vals, func(i, j int) bool { return vals[i].sim > vals[j].sim })
				vals = vals[:8]
			}
			for _, v := range vals {
				sim := v.sim
				if l := 0.9 * model.Similarity(kw.Text, rel+" "+attr); l > sim {
					sim = l
				}
				out = append(out, keyword.Mapping{Keyword: kw.Text, Kind: keyword.KindPred, Rel: rel, Attr: attr, Op: "=",
					Value: sqlparse.Value{Kind: sqlparse.StringVal, S: v.v}, Sim: sim})
			}
		}
	}
	return out
}

// TestScoredCandidatesMatchModel holds the mapper's scored candidates —
// retrieval order, every field and σ to the bit — to refCandidates for
// every benchmark keyword in the FROM, SELECT and WHERE contexts and for
// full-text keywords built from the stored values, which match more than
// eight values of an attribute and so exercise the shortlist.
func TestScoredCandidatesMatchModel(t *testing.T) {
	for _, ds := range datasets.All() {
		for name, model := range models() {
			m := keyword.NewMapper(ds.DB, model, nil, keyword.Options{})
			var kws []keyword.Keyword
			for _, task := range ds.Tasks {
				for _, kw := range task.Keywords {
					kws = append(kws, kw)
					for _, ctx := range []fragment.Context{fragment.From, fragment.Select, fragment.Where} {
						kws = append(kws, keyword.Keyword{Text: kw.Text, Meta: keyword.Metadata{Context: ctx}})
					}
				}
			}
			for _, p := range mergeProbeKeywords(ds.DB) {
				kws = append(kws, keyword.Keyword{Text: p.text, Meta: keyword.Metadata{Context: fragment.Where}})
			}
			shortlisted := 0
			for _, kw := range kws {
				got, want := m.ScoredCandidates(kw), refCandidates(m, ds.DB.Schema(), model, kw)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: candidates of %+v =\n%v\nwant\n%v", ds.Name, name, kw, got, want)
				}
				if kw.Meta.Context == fragment.Where {
					for _, match := range m.IndexTextAttrs(kw.Text) {
						if len(match.Values) > 8 {
							shortlisted++
						}
					}
				}
			}
			if shortlisted == 0 {
				t.Fatalf("%s %s: no attribute matched more than eight values", ds.Name, name)
			}
		}
	}
}

// TestMapKeywordsConcurrent maps every MAS task from several goroutines
// sharing one mapper — one vocabulary, pooled query scratch — and holds
// each result to the sequential one (run under -race in CI). A query
// buffer leaking across requests would corrupt σ and fail the comparison.
func TestMapKeywordsConcurrent(t *testing.T) {
	ds := datasets.MAS()
	m := keyword.NewMapper(ds.DB, embedding.New(), nil, keyword.Options{})
	want := make([][]keyword.Configuration, len(ds.Tasks))
	for i, task := range ds.Tasks {
		cfgs, err := m.MapKeywords(task.Keywords)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		want[i] = cfgs
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 2*len(ds.Tasks); i += workers {
				task := ds.Tasks[i%len(ds.Tasks)]
				got, err := m.MapKeywords(task.Keywords)
				if err != nil || !reflect.DeepEqual(got, want[i%len(ds.Tasks)]) {
					t.Errorf("worker %d: %s diverged under concurrency (err %v)", w, task.ID, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
