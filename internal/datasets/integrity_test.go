package datasets

import (
	"testing"

	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/sqlparse"
	"templar/internal/stem"
)

// TestValueKeywordsMatchExactlyOneValue: every string-valued keyword in the
// workloads must full-text match its gold attribute and score as an exact
// match there, so candidate pruning is deterministic: mapped alone in a
// WHERE context, the keyword's candidates include its gold predicate.
func TestValueKeywordsMatchExactlyOneValue(t *testing.T) {
	for _, ds := range All() {
		m := keyword.NewMapper(ds.DB, embedding.New(), nil, keyword.Options{})
		for _, task := range ds.Tasks {
			q := sqlparse.MustParse(task.Gold)
			if err := q.Resolve(nil); err != nil {
				t.Fatal(err)
			}
			for _, c := range q.Where {
				p, ok := c.(sqlparse.Pred)
				if !ok || p.Value.Kind != sqlparse.StringVal {
					continue
				}
				cfgs, err := m.MapKeywords([]keyword.Keyword{{Text: p.Value.S, Meta: keyword.Metadata{Context: fragment.Where}}})
				if err != nil {
					t.Fatalf("%s: %v", task.ID, err)
				}
				foundExact := false
				for _, cfg := range cfgs {
					mp := cfg.Mappings[0]
					if mp.Qualified() == p.Column.String() && mp.Value.S == p.Value.S && mp.Sim == 1 {
						foundExact = true
					}
				}
				if !foundExact {
					t.Errorf("%s: keyword value %q does not exact-match %s", task.ID, p.Value.S, p.Column)
				}
			}
		}
	}
}

// TestPoolValuesHaveDistinctStemSets: within each text attribute, no two
// distinct values may stem-collide completely (one being a stem-subset of
// the other at every token), which would make exact-match detection
// ambiguous for the shorter value.
func TestPoolValuesHaveDistinctStemSets(t *testing.T) {
	for _, ds := range All() {
		for _, rel := range ds.DB.Schema().Relations() {
			tab := ds.DB.Table(rel)
			r, _ := ds.DB.Schema().Relation(rel)
			for _, a := range r.Attributes {
				vals := tab.DistinctValues(a.Name)
				seen := make(map[string]string, len(vals))
				for _, v := range vals {
					key := stemKey(v)
					if prev, dup := seen[key]; dup && prev != v {
						t.Errorf("%s: %s.%s values %q and %q share stem set %q",
							ds.Name, rel, a.Name, prev, v, key)
					}
					seen[key] = v
				}
			}
		}
	}
}

func stemKey(v string) string {
	toks := []string{}
	cur := []byte{}
	flush := func() {
		if len(cur) > 0 {
			toks = append(toks, stem.Stem(string(cur)))
			cur = cur[:0]
		}
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			cur = append(cur, c)
		case c >= 'A' && c <= 'Z':
			cur = append(cur, c+'a'-'A')
		default:
			flush()
		}
	}
	flush()
	out := ""
	for _, tk := range toks {
		out += tk + "|"
	}
	return out
}

// TestSelfJoinGoldsHaveTwoInstances ensures every self-join gold query
// really duplicates the relation (guarding the generators against
// regressions that would silently stop exercising FORK).
func TestSelfJoinGoldsHaveTwoInstances(t *testing.T) {
	for _, ds := range All() {
		for _, task := range ds.Tasks {
			if len(task.Keywords) < 3 {
				continue
			}
			q := sqlparse.MustParse(task.Gold)
			counts := map[string]int{}
			for _, f := range q.From {
				counts[f.Name]++
			}
			dup := false
			for _, c := range counts {
				if c >= 2 {
					dup = true
				}
			}
			if !dup {
				t.Errorf("%s: three-keyword task without a self-join gold", task.ID)
			}
		}
	}
}
