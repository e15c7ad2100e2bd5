package keyword_test

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"templar/internal/datasets"
	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/schema"
	"templar/internal/sqlparse"
	"templar/internal/stem"
)

// goldLog mines the dataset's complete gold-SQL log at one obscurity level,
// into the snapshot the mapper scores against and into refLog's plain
// fragment-keyed counts.
func goldLog(t *testing.T, ds *datasets.Dataset, ob fragment.Obscurity) (*qfg.Snapshot, *refLog) {
	t.Helper()
	entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
	ref := &refLog{ob: ob, nv: make(map[fragment.Fragment]int), ne: make(map[[2]fragment.Fragment]int)}
	for _, task := range ds.Tasks {
		q, err := sqlparse.Parse(task.Gold)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	snap, err := qfg.Build(entries, ob)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries { // resolved in place by Build
		frags := fragment.Extract(e.Query, ob)
		ref.queries++
		for i, a := range frags {
			ref.nv[a]++
			for _, b := range frags[i+1:] {
				ref.ne[[2]fragment.Fragment{a, b}]++
				ref.ne[[2]fragment.Fragment{b, a}]++
			}
		}
	}
	return snap, ref
}

// refLog is Definition 6 counted as directly as possible — fragment-keyed
// maps, no interning and no snapshot — the independent reference the
// mapper's ID-based scoring is held to.
type refLog struct {
	ob      fragment.Obscurity
	queries int
	nv      map[fragment.Fragment]int
	ne      map[[2]fragment.Fragment]int
}

// dice is 2·ne / (nv(a) + nv(b)), nv(a) standing in for ne(a, a).
func (r *refLog) dice(a, b fragment.Fragment) float64 {
	na, nb := r.nv[a], r.nv[b]
	if na+nb == 0 {
		return 0
	}
	ne := na
	if a != b {
		ne = r.ne[[2]fragment.Fragment{a, b}]
	}
	return min(2*float64(ne)/float64(na+nb), 1)
}

// refProbes answers Algorithm 2's probes as plainly as possible from the
// rows — the independent reference the candidate index is held to. Per
// text attribute it keeps a stem → distinct-value map and scans all of it
// for every query stem; numeric probes scan the rows with db.Value.Compare.
type refProbes struct {
	d    *db.Database
	rels []string                              // sorted relation names
	keys map[string]bool                       // "rel.attr" of PK and FK-PK columns
	text map[string]map[string]map[string]bool // "rel.attr" → stem → values
}

func newRefProbes(d *db.Database) *refProbes {
	g := d.Schema()
	r := &refProbes{d: d, rels: g.Relations(), keys: map[string]bool{}, text: map[string]map[string]map[string]bool{}}
	sort.Strings(r.rels)
	for _, fk := range g.ForeignKeys() {
		r.keys[fk.FromRel+"."+fk.FromAttr] = true
		r.keys[fk.ToRel+"."+fk.ToAttr] = true
	}
	for _, rn := range r.rels {
		rel, _ := g.Relation(rn)
		t := d.Table(rn)
		for ci, a := range rel.Attributes {
			if a.PrimaryKey {
				r.keys[rn+"."+a.Name] = true
			}
			if a.Type != schema.Text {
				continue
			}
			idx := map[string]map[string]bool{}
			for _, row := range t.Rows() {
				v := row[ci].S
				for _, tok := range refTokens(v) {
					s := stem.Stem(tok)
					if idx[s] == nil {
						idx[s] = map[string]bool{}
					}
					idx[s][v] = true
				}
			}
			r.text[rn+"."+a.Name] = idx
		}
	}
	return r
}

// refTokens splits s as the vocabulary does: lowercase ASCII letters and
// digits, every other byte a separator.
func refTokens(s string) []string {
	toks := strings.FieldsFunc(s, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
	})
	for i, tok := range toks {
		toks[i] = strings.ToLower(tok)
	}
	return toks
}

// nonKey lists the schema's non-key attributes in insertion order.
func (r *refProbes) nonKey() []string {
	var out []string
	for _, q := range r.d.Schema().QualifiedAttributes() {
		if !r.keys[q] {
			out = append(out, q)
		}
	}
	return out
}

// textAttrs is findTextAttrs: every text attribute with a distinct value
// holding, for each keyword stem, a token stem it prefixes — after
// dropping the stems equal to the stemmed relation or attribute name, and
// skipping the attribute when none are left.
func (r *refProbes) textAttrs(kw string) []keyword.Match {
	var out []keyword.Match
	for _, rn := range r.rels {
		rel, _ := r.d.Schema().Relation(rn)
		for _, a := range rel.Attributes {
			if a.Type != schema.Text {
				continue
			}
			var query []string
			for _, tok := range refTokens(kw) {
				if s := stem.Stem(tok); s != stem.Stem(rn) && s != stem.Stem(a.Name) {
					query = append(query, s)
				}
			}
			if vals := r.matchAll(rn+"."+a.Name, query); len(vals) > 0 {
				out = append(out, keyword.Match{Attr: rn + "." + a.Name, Values: vals})
			}
		}
	}
	return out
}

// matchAll returns the sorted values matching every query stem by prefix;
// an empty query matches nothing.
func (r *refProbes) matchAll(q string, query []string) []string {
	var result map[string]bool
	for _, qs := range query {
		matched := map[string]bool{}
		for tok, vals := range r.text[q] {
			if strings.HasPrefix(tok, qs) {
				for v := range vals {
					matched[v] = true
				}
			}
		}
		if result != nil {
			for v := range result {
				if !matched[v] {
					delete(result, v)
				}
			}
		} else {
			result = matched
		}
	}
	var out []string
	for v := range result {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// numericAttrs is findNumericAttrs: every non-key numeric attribute with a
// row satisfying "attr op n" (an empty op is "=").
func (r *refProbes) numericAttrs(n float64, op string) []keyword.Match {
	if op == "" {
		op = "="
	}
	var out []keyword.Match
	for _, rn := range r.rels {
		rel, _ := r.d.Schema().Relation(rn)
		for ci, a := range rel.Attributes {
			if a.Type != schema.Number || r.keys[rn+"."+a.Name] {
				continue
			}
			for _, row := range r.d.Table(rn).Rows() {
				if ok, err := row[ci].Compare(op, db.Num(n)); err == nil && ok {
					out = append(out, keyword.Match{Attr: rn + "." + a.Name})
					break
				}
			}
		}
	}
	return out
}

// TestCandidateIndexMatchesDatabaseProbes pins the mapper's candidate index
// to refProbes: for every keyword of every benchmark task, the full-text
// and numeric probes (every operator) must return exactly what the plain
// scan of the rows returns — same matches, same values, same order — and
// the FROM and SELECT candidate lists must be the schema's relations and
// non-key attributes.
func TestCandidateIndexMatchesDatabaseProbes(t *testing.T) {
	for _, ds := range datasets.All() {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			m := keyword.NewMapper(ds.DB, embedding.New(), nil, keyword.Options{})
			ref := newRefProbes(ds.DB)
			if got, want := m.IndexFromRels(), ds.DB.Schema().Relations(); !reflect.DeepEqual(got, want) {
				t.Fatalf("FROM candidates = %v, want %v", got, want)
			}
			if got, want := m.IndexSelectAttrs(), ref.nonKey(); !reflect.DeepEqual(got, want) {
				t.Fatalf("SELECT candidates = %v, want %v", got, want)
			}
			probes := 0
			for _, task := range ds.Tasks {
				for _, kw := range task.Keywords {
					if got, want := m.IndexTextAttrs(kw.Text), ref.textAttrs(kw.Text); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: text probe %q = %v, want %v", task.ID, kw.Text, got, want)
					}
					n, ok := keyword.ExtractNumber(kw.Text)
					if !ok {
						continue
					}
					for _, op := range []string{"", "=", "!=", "<", "<=", ">", ">="} {
						// The keyword's own value plus its neighbours, so
						// both sides of every attribute extreme are probed.
						for _, x := range []float64{n - 1, n, n + 1} {
							if got, want := m.IndexNumericAttrs(x, op), ref.numericAttrs(x, op); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: numeric probe %v %q = %v, want %v", task.ID, x, op, got, want)
							}
							probes++
						}
					}
				}
			}
			if probes == 0 {
				t.Fatal("no numeric keywords probed")
			}
			// Keywords built from the stored text, so matchAll's merges
			// run on every shape: stems prefix-matching several tokens
			// (whose postings are unioned) and several stems (whose unions
			// are intersected), with empty and non-empty results; and
			// schema names paired with stored tokens, so the rule dropping
			// relation- and attribute-name stems decides matches.
			unions, intersections, named := 0, 0, 0
			merges := mergeProbeKeywords(ds.DB)
			for _, kw := range merges {
				got, want := m.IndexTextAttrs(kw.text), ref.textAttrs(kw.text)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("text probe %q = %v, want %v", kw.text, got, want)
				}
				if len(want) > 0 && kw.multiToken {
					unions++
				}
				if len(want) > 0 && kw.multiStem {
					intersections++
				}
				if len(want) > 0 && kw.schemaName {
					named++
				}
			}
			t.Logf("%d merge probes: %d matched with a multi-token stem, %d with several stems, %d with a schema name", len(merges), unions, intersections, named)
			if unions == 0 || intersections == 0 || named == 0 {
				t.Fatalf("merge probes matched %d multi-token stems, %d multi-stem keywords and %d schema-name keywords; want all > 0", unions, intersections, named)
			}
		})
	}
}

// mergeProbe is one synthetic full-text keyword: multiToken when one of
// its stems is a prefix of two or more distinct stored tokens of some text
// attribute, multiStem when it has two or more stems, schemaName when it
// leads with a relation or attribute name.
type mergeProbe struct {
	text                              string
	multiToken, multiStem, schemaName bool
}

// mergeProbeKeywords derives full-text keywords from up to 16 sorted
// distinct values of every text attribute: the value itself, two- and
// three-letter prefixes of its tokens, a prefix paired with its last
// token, its first token paired with the next value's first token, and its
// first token after the relation name and after the attribute name.
func mergeProbeKeywords(d *db.Database) []mergeProbe {
	var out []mergeProbe
	g := d.Schema()
	for _, rn := range g.Relations() {
		rel, _ := g.Relation(rn)
		for _, a := range rel.Attributes {
			if a.Type != schema.Text {
				continue
			}
			vals := d.Table(rn).DistinctValues(a.Name)
			sort.Strings(vals)
			vocab := map[string]bool{}
			for _, v := range vals {
				for _, tok := range refTokens(v) {
					vocab[stem.Stem(tok)] = true
				}
			}
			multiToken := func(text string) bool {
				for _, tok := range refTokens(text) {
					s, n := stem.Stem(tok), 0
					for w := range vocab {
						if strings.HasPrefix(w, s) {
							n++
						}
					}
					if n >= 2 {
						return true
					}
				}
				return false
			}
			add := func(text string) {
				out = append(out, mergeProbe{text: text, multiToken: multiToken(text), multiStem: len(refTokens(text)) >= 2})
			}
			step := len(vals)/16 + 1
			for i := 0; i < len(vals); i += step {
				toks := refTokens(vals[i])
				if len(toks) == 0 {
					continue
				}
				add(vals[i])
				for _, tok := range toks {
					for _, n := range []int{2, 3} {
						if len(tok) > n {
							add(tok[:n])
						}
					}
				}
				if first := toks[0]; len(first) > 3 {
					add(first[:3] + " " + toks[len(toks)-1])
				}
				if i+1 < len(vals) {
					if next := refTokens(vals[i+1]); len(next) > 0 {
						add(toks[0] + " " + next[0])
					}
				}
				for _, name := range []string{rn, a.Name} {
					out = append(out, mergeProbe{text: name + " " + toks[0], schemaName: true})
				}
			}
		}
	}
	return out
}

// refQFGScore recomputes ScoreQFG (§V-C2) from the reference counts: the geometric mean of Dice
// over the pairs of participating fragments (non-FROM unless includeFrom)
// in mapping order (i < j), the marginal frequency for a lone fragment,
// and 0 when any pair never co-occurs.
func refQFGScore(g *refLog, cfg keyword.Configuration, includeFrom bool) float64 {
	var frags []fragment.Fragment
	for _, mp := range cfg.Mappings {
		if includeFrom || mp.Kind != keyword.KindRelation {
			frags = append(frags, mp.Fragment(g.ob))
		}
	}
	pairs, diceLog, zero := 0, 0.0, false
	for i := range frags {
		for j := i + 1; j < len(frags); j++ {
			d := g.dice(frags[i], frags[j])
			pairs++
			if d <= 0 {
				zero = true
				continue
			}
			diceLog += math.Log(d)
		}
	}
	switch {
	case pairs == 0 && len(frags) == 1:
		if q := g.queries; q > 0 {
			return float64(g.nv[frags[0]]) / float64(q)
		}
		return 0
	case pairs == 0, zero:
		return 0
	}
	return math.Exp(diceLog / float64(pairs))
}

// TestSnapshotQFGScoreMatchesGraphDice pins the one scoring path — interned
// IDs probed against the compiled snapshot — to the map-backed refLog Dice
// reference: for every benchmark task at every obscurity level, with and
// without the IncludeFromInQFG ablation, every returned configuration's
// QFGScore must be bit-identical to the recomputation above.
func TestSnapshotQFGScoreMatchesGraphDice(t *testing.T) {
	for _, ds := range datasets.All() {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			for _, ob := range []fragment.Obscurity{fragment.Full, fragment.NoConst, fragment.NoConstOp} {
				snap, ref := goldLog(t, ds, ob)
				for _, includeFrom := range []bool{false, true} {
					m := keyword.NewMapper(ds.DB, embedding.New(), snap, keyword.Options{IncludeFromInQFG: includeFrom})
					scored := 0
					for _, task := range ds.Tasks {
						// The benchmark keywords carry no FROM context, so
						// each task is also mapped with a FROM-context copy
						// of its first keyword to put relations into the
						// configurations.
						from := keyword.Keyword{Text: task.Keywords[0].Text, Meta: keyword.Metadata{Context: fragment.From}}
						var cfgs []keyword.Configuration
						for _, kws := range [][]keyword.Keyword{task.Keywords, append([]keyword.Keyword{from}, task.Keywords...)} {
							more, err := m.MapKeywords(kws)
							if err == nil {
								cfgs = append(cfgs, more...)
							}
						}
						for _, cfg := range cfgs {
							want := refQFGScore(ref, cfg, includeFrom)
							if math.Float64bits(cfg.QFGScore) != math.Float64bits(want) {
								t.Fatalf("%v includeFrom=%v %s: QFGScore = %v, reference recomputation = %v\n%v",
									ob, includeFrom, task.ID, cfg.QFGScore, want, cfg.Mappings)
							}
							if cfg.QFGScore > 0 {
								scored++
							}
						}
					}
					if scored == 0 {
						t.Fatalf("%v includeFrom=%v: no configuration carried log evidence", ob, includeFrom)
					}
				}
			}
		})
	}
}
