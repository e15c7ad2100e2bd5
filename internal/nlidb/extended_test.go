package nlidb

import (
	"strings"
	"testing"

	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/joinpath"
	"templar/internal/keyword"
	"templar/internal/sqlparse"
)

func TestJoinWeightsOverride(t *testing.T) {
	d := exampleDB(t)
	// A custom weight function that makes the journal route to domain
	// essentially free forces the translator down that path regardless of
	// the QFG.
	cheapJournal := func(a, b string) float64 {
		if a == "domain_journal" || b == "domain_journal" {
			return 0.001
		}
		return 1
	}
	sys := NewSystem("custom", d, embedding.New(), Config{
		Keyword:     keyword.Options{},
		QFG:         exampleQFG(t),
		JoinWeights: cheapJournal,
	})
	tr, err := sys.Translate("Find papers in the Databases domain", false, exampleKeywords())
	if err != nil {
		t.Fatal(err)
	}
	// The keyword mapping still flips to publication.title (QFG), but the
	// join route is forced through domain_journal by the custom weights.
	if !strings.Contains(tr.SQL, "domain_journal") {
		t.Fatalf("custom weights ignored: %s", tr.SQL)
	}
	if sys.Name() != "custom" {
		t.Fatal("custom system name")
	}
}

func TestBuildSQLGroupByFlag(t *testing.T) {
	cfg := keyword.Configuration{Mappings: []keyword.Mapping{
		{Kind: keyword.KindAttr, Rel: "publication", Attr: "year", GroupBy: true},
	}}
	path := joinpath.Path{Relations: []string{"publication"}}
	q, err := BuildSQL(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].Column != "year" {
		t.Fatalf("GroupBy = %v", q.GroupBy)
	}
}

func TestBuildSQLNoSelectFallsBackToStar(t *testing.T) {
	cfg := keyword.Configuration{Mappings: []keyword.Mapping{
		{Kind: keyword.KindPred, Rel: "publication", Attr: "year", Op: ">",
			Value: sqlparse.Value{Kind: sqlparse.NumberVal, N: 2000}},
	}}
	path := joinpath.Path{Relations: []string{"publication"}}
	q, err := BuildSQL(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 1 || !q.Select[0].Star {
		t.Fatalf("Select = %v", q.Select)
	}
}

func TestBuildSQLDuplicateAttrOverflowClamped(t *testing.T) {
	// Three predicates on one attribute with only two instances in the
	// path: the third assignment clamps to the last instance rather than
	// panicking.
	cfg := keyword.Configuration{Mappings: []keyword.Mapping{
		{Kind: keyword.KindPred, Rel: "author", Attr: "name", Op: "=", Value: sqlparse.Value{Kind: sqlparse.StringVal, S: "A"}},
		{Kind: keyword.KindPred, Rel: "author", Attr: "name", Op: "=", Value: sqlparse.Value{Kind: sqlparse.StringVal, S: "B"}},
		{Kind: keyword.KindPred, Rel: "author", Attr: "name", Op: "=", Value: sqlparse.Value{Kind: sqlparse.StringVal, S: "C"}},
	}}
	path := joinpath.Path{Relations: []string{"author", "author#2"}}
	q, err := BuildSQL(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 3 {
		t.Fatalf("Where = %v", q.Where)
	}
}

func TestTranslationScoreConsistency(t *testing.T) {
	d := exampleDB(t)
	sys := pipelinePlus(d, exampleQFG(t))
	tr, err := sys.Translate("Find papers in the Databases domain", false, exampleKeywords())
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Config.Score * tr.Path.Goodness
	if tr.Score != want {
		t.Fatalf("Score = %v, want config %v × goodness %v", tr.Score, tr.Config.Score, tr.Path.Goodness)
	}
	// Rendered SQL re-parses and canonicalizes to tr.SQL.
	q := sqlparse.MustParse(tr.Rendered)
	if err := q.Resolve(nil); err != nil {
		t.Fatal(err)
	}
	if q.Canonical() != tr.SQL {
		t.Fatalf("canonical mismatch: %s vs %s", q.Canonical(), tr.SQL)
	}
}

func TestNaLIRPlusSharesFrontEndWithNaLIR(t *testing.T) {
	// Both systems apply the SAME deterministic noise: corrupted keywords
	// are identical, so differences come only from Templar's mapping.
	noise := &ParserNoise{BaseRate: 100, HazardRate: 100}
	kws := []keyword.Keyword{
		{Text: "papers", Meta: keyword.Metadata{Context: fragment.Select, Aggs: []string{"COUNT"}}},
		{Text: "after 2000", Meta: keyword.Metadata{Context: fragment.Where, Op: ">"}},
	}
	a := noise.Corrupt("nlq text", false, kws)
	b := noise.Corrupt("nlq text", false, kws)
	for i := range a {
		if a[i].Text != b[i].Text || a[i].Meta.Op != b[i].Meta.Op {
			t.Fatal("front-end corruption differs between calls")
		}
	}
}
