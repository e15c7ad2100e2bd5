package keyword

import (
	"fmt"
	"testing"

	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/schema"
	"templar/internal/sqlparse"
)

// academicDB builds a small MAS-like database: journal names, publication
// titles, and numeric year/citations next to primary and foreign keys.
func academicDB(t *testing.T) *db.Database {
	t.Helper()
	g := schema.NewGraph()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddRelation(schema.Relation{Name: "journal", Attributes: []schema.Attribute{
		{Name: "jid", Type: schema.Number, PrimaryKey: true},
		{Name: "name", Type: schema.Text},
	}}))
	must(g.AddRelation(schema.Relation{Name: "publication", Attributes: []schema.Attribute{
		{Name: "pid", Type: schema.Number, PrimaryKey: true},
		{Name: "title", Type: schema.Text},
		{Name: "year", Type: schema.Number},
		{Name: "citations", Type: schema.Number},
		{Name: "jid", Type: schema.Number},
	}}))
	must(g.AddForeignKey(schema.ForeignKey{FromRel: "publication", FromAttr: "jid", ToRel: "journal", ToAttr: "jid"}))
	d := db.New(g)
	d.MustInsert("journal", []db.Value{db.Num(1), db.Str("TKDE")})
	d.MustInsert("journal", []db.Value{db.Num(2), db.Str("TMC")})
	d.MustInsert("publication", []db.Value{db.Num(10), db.Str("Efficient Query Processing in Relational Databases"), db.Num(2001), db.Num(35), db.Num(1)})
	d.MustInsert("publication", []db.Value{db.Num(11), db.Str("Mobile Computing Surveys"), db.Num(1998), db.Num(12), db.Num(2)})
	d.MustInsert("publication", []db.Value{db.Num(12), db.Str("Keyword Search over Databases"), db.Num(2005), db.Num(70), db.Num(1)})
	return d
}

func (ra relAttr) String() string { return ra.rel + "." + ra.attr }

// findText probes the index with a keyword's stems, resolved as
// keywordCands resolves them.
func (ci *candidateIndex) findText(keyword string) []textMatch {
	var q embedding.Query
	ci.vocab.Resolve(&q, keyword)
	return ci.findTextAttrs(q.Stems())
}

func TestFindTextAttrsBooleanMode(t *testing.T) {
	ci := buildCandidateIndex(academicDB(t), embedding.New())
	// "relational databases" stems to [relat, databas]; only one title
	// contains both prefixes.
	matches := ci.findText("relational databases")
	if len(matches) != 1 {
		t.Fatalf("matches = %v", matches)
	}
	m := matches[0]
	if m.String() != "publication.title" || len(m.values) != 1 {
		t.Fatalf("match = %+v", m)
	}
	// Single token matching multiple rows in the same attribute.
	matches = ci.findText("databases")
	if len(matches) != 1 || len(matches[0].values) != 2 {
		t.Fatalf("matches = %+v", matches)
	}
}

func TestFindTextAttrsDropsSchemaNameTokens(t *testing.T) {
	ci := buildCandidateIndex(academicDB(t), embedding.New())
	// The token "journal" matches the relation name and is dropped when
	// searching journal.name; "TKDE" alone then matches.
	found := false
	for _, m := range ci.findText("journal TKDE") {
		if m.String() == "journal.name" {
			found = true
			if len(m.values) != 1 || ci.values[m.values[0]] != "TKDE" {
				t.Fatalf("values = %v", m.values)
			}
		}
	}
	if !found {
		t.Fatal("journal.name not matched")
	}
}

func TestFindTextAttrsAllTokensSchemaNames(t *testing.T) {
	ci := buildCandidateIndex(academicDB(t), embedding.New())
	// If every token matches the attribute/relation name the search is
	// skipped for that attribute (would otherwise match everything).
	for _, m := range ci.findText("journal name") {
		if m.String() == "journal.name" {
			t.Fatalf("empty-query attribute should be skipped, got %v", m)
		}
	}
}

func TestFindTextAttrsNoMatch(t *testing.T) {
	ci := buildCandidateIndex(academicDB(t), embedding.New())
	if got := ci.findText("zebra unicorn"); got != nil {
		t.Fatalf("expected no matches, got %v", got)
	}
	if got := ci.findText(""); got != nil {
		t.Fatalf("expected no matches for empty keyword, got %v", got)
	}
}

func TestFindNumericAttrs(t *testing.T) {
	ci := buildCandidateIndex(academicDB(t), embedding.New())
	// year > 2000 matches publication.year (2001, 2005); no citation
	// count exceeds 2000.
	got := ci.findNumericAttrs(2000, ">")
	if len(got) != 1 || got[0].String() != "publication.year" {
		t.Fatalf("findNumericAttrs = %v", got)
	}
	// = 70 matches only citations (no year equals 70).
	got = ci.findNumericAttrs(70, "=")
	if len(got) != 1 || got[0].String() != "publication.citations" {
		t.Fatalf("findNumericAttrs = %v", got)
	}
	// > 10 matches year and citations, but never id columns.
	got = ci.findNumericAttrs(10, ">")
	if len(got) != 2 {
		t.Fatalf("findNumericAttrs = %v", got)
	}
	for _, m := range got {
		if m.attr == "jid" || m.attr == "pid" {
			t.Fatalf("key column leaked: %v", m)
		}
	}
}

func TestFindNumericAttrsDefaultOp(t *testing.T) {
	ci := buildCandidateIndex(academicDB(t), embedding.New())
	got := ci.findNumericAttrs(1998, "")
	if len(got) != 1 || got[0].String() != "publication.year" {
		t.Fatalf("findNumericAttrs eq = %v", got)
	}
}

// TestFindNumericAttrsConsistentWithPredicateNonEmpty: every attribute
// findNumericAttrs returns must select at least one row under the probe
// predicate — exec(c) ≠ ∅, asked of the database's executor — and every
// non-key numeric attribute that does must be returned.
func TestFindNumericAttrsConsistentWithPredicateNonEmpty(t *testing.T) {
	d := academicDB(t)
	ci := buildCandidateIndex(d, embedding.New())
	nonEmpty := func(ra relAttr, op string, n float64) bool {
		q := sqlparse.MustParse(fmt.Sprintf("SELECT t.%s FROM %s t WHERE t.%s %s %g", ra.attr, ra.rel, ra.attr, op, n))
		res, err := d.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows) > 0
	}
	for _, tc := range []struct {
		n  float64
		op string
	}{{2000, ">"}, {35, "="}, {1998, "<="}, {100, "<"}, {2005, ">="}, {12, "!="}, {2006, ">"}} {
		got := make(map[relAttr]bool)
		for _, na := range ci.findNumericAttrs(tc.n, tc.op) {
			got[na.relAttr] = true
			if !nonEmpty(na.relAttr, tc.op, tc.n) {
				t.Errorf("%v %s %g: returned but empty", na, tc.op, tc.n)
			}
		}
		for _, ra := range []relAttr{{"publication", "year"}, {"publication", "citations"}} {
			if nonEmpty(ra, tc.op, tc.n) && !got[ra] {
				t.Errorf("%v %s %g: satisfiable but not returned", ra, tc.op, tc.n)
			}
		}
	}
}

// TestFullTextPrefixSemantics: boolean-mode matching requires EVERY query
// stem to prefix-match some token of the value.
func TestFullTextPrefixSemantics(t *testing.T) {
	ci := buildCandidateIndex(academicDB(t), embedding.New())
	var title *textAttrIndex
	for i := range ci.textAttrs {
		if ci.textAttrs[i].String() == "publication.title" {
			title = &ci.textAttrs[i]
		}
	}
	// "efficient quer" -> stems [effici, quer]; only one title has both.
	if vals := title.matchAll([]string{"effici", "quer"}); len(vals) != 1 {
		t.Fatalf("matchAll = %v", vals)
	}
	// A stem matching nothing empties the result.
	if got := title.matchAll([]string{"effici", "zzz"}); got != nil {
		t.Fatalf("matchAll = %v", got)
	}
	// Empty query matches nothing (never everything).
	if got := title.matchAll(nil); got != nil {
		t.Fatalf("matchAll(nil) = %v", got)
	}
	// Only text attributes are indexed for full-text search.
	if len(ci.textAttrs) != 2 {
		t.Fatalf("text indexes = %v, want journal.name and publication.title", ci.textAttrs)
	}
}
