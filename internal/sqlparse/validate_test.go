package sqlparse

import (
	"math"
	"testing"
)

// TestValidate: every parsed query passes, and each field Parse could not
// have produced is named.
func TestValidate(t *testing.T) {
	for _, src := range []string{
		"SELECT COUNT(DISTINCT p.pid), p.year FROM publication p WHERE p.year >= 2000 AND p.title LIKE 'a%' GROUP BY p.year ORDER BY COUNT(p.pid) DESC LIMIT 5",
		"SELECT a.name FROM author a, writes w WHERE w.aid = a.aid AND a.age BETWEEN 20 AND 30 AND a.city IN ('SF', 'LA')",
		"SELECT DISTINCT(t.in) FROM t t WHERE t.x ?op ?val AND t.y <> -1.5",
	} {
		if err := MustParse(src).Validate(); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
	base := func() *Query { return MustParse("SELECT t.a FROM t WHERE t.b = 1") }
	for name, mutate := range map[string]func(q *Query){
		"no select":      func(q *Query) { q.Select = nil },
		"no from":        func(q *Query) { q.From = nil },
		"free-form agg":  func(q *Query) { q.Select[0].Agg = "x) FROM t; --" },
		"lower-case agg": func(q *Query) { q.Select[0].Agg = "count" },
		"free-form op": func(q *Query) {
			q.Where[0] = Pred{Column: ColumnRef{"t", "b"}, Op: "> 0 OR 1 =", Value: Value{Kind: NumberVal, N: 1}}
		},
		"+Inf": func(q *Query) {
			q.Where[0] = Pred{Column: ColumnRef{"t", "b"}, Op: "<", Value: Value{Kind: NumberVal, N: math.Inf(1)}}
		},
		"NaN in BETWEEN": func(q *Query) {
			q.Where[0] = BetweenPred{Column: ColumnRef{"t", "b"}, Lo: Value{Kind: NumberVal, N: math.NaN()}}
		},
		"empty IN":         func(q *Query) { q.Where[0] = InPred{Column: ColumnRef{"t", "b"}} },
		"bare join side":   func(q *Query) { q.Where[0] = JoinCond{Left: ColumnRef{"t", "b"}, Right: ColumnRef{Column: "c"}} },
		"keyword as table": func(q *Query) { q.From[0].Name = "select" },
		"keyword alias":    func(q *Query) { q.From[0].Alias = "where" },
		"spaced column":    func(q *Query) { q.Select[0].Column.Column = "a b" },
		"empty group col":  func(q *Query) { q.GroupBy = []ColumnRef{{}} },
	} {
		q := base()
		mutate(q)
		if err := q.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %q", name, q.String())
		}
	}
}

// TestResolveSelfAliasAsRendered: a table aliased to its own name renders
// without the alias, so Resolve must read it as unaliased too — else a
// query resolves differently before and after a print-and-parse round trip.
func TestResolveSelfAliasAsRendered(t *testing.T) {
	q := &Query{
		Select: []SelectItem{{Column: ColumnRef{"b", "x"}}},
		From:   []TableRef{{Name: "a", Alias: "b"}, {Name: "b", Alias: "b"}},
		Limit:  -1,
	}
	again := MustParse(q.String())
	if err := q.Resolve(nil); err != nil {
		t.Fatal(err)
	}
	if err := again.Resolve(nil); err != nil {
		t.Fatal(err)
	}
	if q.Canonical() != again.Canonical() {
		t.Fatalf("built %q, round trip %q", q.Canonical(), again.Canonical())
	}
}
