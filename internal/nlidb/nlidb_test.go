package nlidb

import (
	"reflect"
	"strings"
	"testing"

	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/joinpath"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/schema"
	"templar/internal/sqlparse"
)

// exampleDB builds the Figure 1 fragment needed by the running example:
// publication, journal, domain, keyword with junctions, plus author/writes
// for self-joins.
func exampleDB(t testing.TB) *db.Database {
	t.Helper()
	g := schema.NewGraph()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	num := func(name string, pk bool) schema.Attribute {
		return schema.Attribute{Name: name, Type: schema.Number, PrimaryKey: pk}
	}
	text := func(name string) schema.Attribute {
		return schema.Attribute{Name: name, Type: schema.Text}
	}
	must(g.AddRelation(schema.Relation{Name: "journal", Attributes: []schema.Attribute{num("jid", true), text("name")}}))
	must(g.AddRelation(schema.Relation{Name: "conference", Attributes: []schema.Attribute{num("cid", true), text("name")}}))
	must(g.AddRelation(schema.Relation{Name: "publication", Attributes: []schema.Attribute{num("pid", true), text("title"), num("year", false), num("jid", false), num("cid", false)}}))
	must(g.AddRelation(schema.Relation{Name: "domain", Attributes: []schema.Attribute{num("did", true), text("name")}}))
	must(g.AddRelation(schema.Relation{Name: "keyword", Attributes: []schema.Attribute{num("kid", true), text("keyword")}}))
	must(g.AddRelation(schema.Relation{Name: "publication_keyword", Attributes: []schema.Attribute{num("pid", false), num("kid", false)}}))
	must(g.AddRelation(schema.Relation{Name: "domain_keyword", Attributes: []schema.Attribute{num("did", false), num("kid", false)}}))
	must(g.AddRelation(schema.Relation{Name: "domain_journal", Attributes: []schema.Attribute{num("did", false), num("jid", false)}}))
	must(g.AddRelation(schema.Relation{Name: "domain_conference", Attributes: []schema.Attribute{num("did", false), num("cid", false)}}))
	must(g.AddRelation(schema.Relation{Name: "author", Attributes: []schema.Attribute{num("aid", true), text("name")}}))
	must(g.AddRelation(schema.Relation{Name: "writes", Attributes: []schema.Attribute{num("aid", false), num("pid", false)}}))
	for _, fk := range []schema.ForeignKey{
		{FromRel: "publication", FromAttr: "jid", ToRel: "journal", ToAttr: "jid"},
		{FromRel: "publication", FromAttr: "cid", ToRel: "conference", ToAttr: "cid"},
		{FromRel: "publication_keyword", FromAttr: "pid", ToRel: "publication", ToAttr: "pid"},
		{FromRel: "publication_keyword", FromAttr: "kid", ToRel: "keyword", ToAttr: "kid"},
		{FromRel: "domain_keyword", FromAttr: "did", ToRel: "domain", ToAttr: "did"},
		{FromRel: "domain_keyword", FromAttr: "kid", ToRel: "keyword", ToAttr: "kid"},
		{FromRel: "domain_journal", FromAttr: "did", ToRel: "domain", ToAttr: "did"},
		{FromRel: "domain_journal", FromAttr: "jid", ToRel: "journal", ToAttr: "jid"},
		{FromRel: "domain_conference", FromAttr: "did", ToRel: "domain", ToAttr: "did"},
		{FromRel: "domain_conference", FromAttr: "cid", ToRel: "conference", ToAttr: "cid"},
		{FromRel: "writes", FromAttr: "aid", ToRel: "author", ToAttr: "aid"},
		{FromRel: "writes", FromAttr: "pid", ToRel: "publication", ToAttr: "pid"},
	} {
		must(g.AddForeignKey(fk))
	}
	d := db.New(g)
	d.MustInsert("journal", []db.Value{db.Num(1), db.Str("TKDE")})
	d.MustInsert("conference", []db.Value{db.Num(1), db.Str("VLDB")})
	d.MustInsert("publication", []db.Value{db.Num(10), db.Str("Query Processing at Scale"), db.Num(2001), db.Num(1), db.Num(1)})
	d.MustInsert("domain", []db.Value{db.Num(100), db.Str("Databases")})
	d.MustInsert("keyword", []db.Value{db.Num(200), db.Str("query optimization")})
	d.MustInsert("publication_keyword", []db.Value{db.Num(10), db.Num(200)})
	d.MustInsert("domain_keyword", []db.Value{db.Num(100), db.Num(200)})
	d.MustInsert("author", []db.Value{db.Num(1), db.Str("John Smith")})
	d.MustInsert("author", []db.Value{db.Num(2), db.Str("Jane Doe")})
	d.MustInsert("writes", []db.Value{db.Num(1), db.Num(10)})
	d.MustInsert("writes", []db.Value{db.Num(2), db.Num(10)})
	return d
}

// exampleQFG compiles a log in which publications are queried with domains via
// the keyword path, and titles co-occur with domain-name predicates.
func exampleQFG(t testing.TB) *qfg.Snapshot {
	t.Helper()
	log := `
20x: SELECT j.name FROM journal j
10x: SELECT p.title FROM publication p, publication_keyword pk, keyword k, domain_keyword dk, domain d WHERE d.name = 'Databases' AND p.pid = pk.pid AND k.kid = pk.kid AND dk.kid = k.kid AND dk.did = d.did
6x: SELECT p.title FROM publication p WHERE p.year > 2000
4x: SELECT COUNT(p.title) FROM publication p WHERE p.year > 2000
`
	entries, err := sqlparse.ParseLog(log)
	if err != nil {
		t.Fatal(err)
	}
	g, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pipelinePlus is the Templar-augmented pipeline of §VII-A2 over snap.
func pipelinePlus(d *db.Database, snap *qfg.Snapshot) *System {
	return NewSystem("Pipeline+", d, embedding.New(), Config{
		Keyword: keyword.Options{Obscurity: fragment.NoConstOp},
		QFG:     snap,
		LogJoin: true,
	})
}

func exampleKeywords() []keyword.Keyword {
	return []keyword.Keyword{
		{Text: "papers", Meta: keyword.Metadata{Context: fragment.Select}},
		{Text: "Databases", Meta: keyword.Metadata{Context: fragment.Where}},
	}
}

func TestRelationBagMergesAndDuplicates(t *testing.T) {
	cfg := keyword.Configuration{Mappings: []keyword.Mapping{
		{Kind: keyword.KindAttr, Rel: "publication", Attr: "title"},
		{Kind: keyword.KindPred, Rel: "publication", Attr: "year", Op: ">", Value: sqlparse.Value{Kind: sqlparse.NumberVal, N: 2000}},
		{Kind: keyword.KindPred, Rel: "author", Attr: "name", Op: "=", Value: sqlparse.Value{Kind: sqlparse.StringVal, S: "John"}},
		{Kind: keyword.KindPred, Rel: "author", Attr: "name", Op: "=", Value: sqlparse.Value{Kind: sqlparse.StringVal, S: "Jane"}},
	}}
	bag := RelationBag(cfg)
	want := "publication,author,author"
	if got := strings.Join(bag, ","); got != want {
		t.Fatalf("bag = %q, want %q", got, want)
	}
	// Explicit relation mappings contribute one instance.
	cfg2 := keyword.Configuration{Mappings: []keyword.Mapping{
		{Kind: keyword.KindRelation, Rel: "journal"},
		{Kind: keyword.KindAttr, Rel: "journal", Attr: "name"},
	}}
	if got := strings.Join(RelationBag(cfg2), ","); got != "journal" {
		t.Fatalf("bag = %q, want journal", got)
	}
}

func TestBuildSQLSingleRelation(t *testing.T) {
	cfg := keyword.Configuration{Mappings: []keyword.Mapping{
		{Kind: keyword.KindAttr, Rel: "publication", Attr: "title"},
		{Kind: keyword.KindPred, Rel: "publication", Attr: "year", Op: ">", Value: sqlparse.Value{Kind: sqlparse.NumberVal, N: 2000}},
	}}
	path := joinpath.Path{Relations: []string{"publication"}}
	q, err := BuildSQL(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	got := q.String()
	want := "SELECT t1.title FROM publication t1 WHERE t1.year > 2000"
	if got != want {
		t.Fatalf("SQL = %q, want %q", got, want)
	}
}

func TestBuildSQLAggregateGetsGroupBy(t *testing.T) {
	cfg := keyword.Configuration{Mappings: []keyword.Mapping{
		{Kind: keyword.KindAttr, Rel: "author", Attr: "name"},
		{Kind: keyword.KindAttr, Rel: "publication", Attr: "pid", Agg: "COUNT"},
	}}
	d := exampleDB(t)
	gen := joinpath.NewGenerator(d.Schema(), nil)
	paths, err := gen.Infer([]string{"author", "publication"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := BuildSQL(cfg, paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].Column != "name" {
		t.Fatalf("GroupBy = %v in %s", q.GroupBy, q)
	}
}

func TestBuildSQLErrorWhenPathMissesRelation(t *testing.T) {
	cfg := keyword.Configuration{Mappings: []keyword.Mapping{
		{Kind: keyword.KindAttr, Rel: "publication", Attr: "title"},
	}}
	path := joinpath.Path{Relations: []string{"journal"}}
	if _, err := BuildSQL(cfg, path); err == nil {
		t.Fatal("expected coverage error")
	}
}

func TestPipelineBaselineReproducesExample1Failure(t *testing.T) {
	// Example 1: the baseline maps "papers" to journal and produces the
	// unintended journal–domain query.
	d := exampleDB(t)
	sys := NewSystem("Pipeline", d, embedding.New(), Config{})
	tr, err := sys.Translate("Find papers in the Databases domain", false, exampleKeywords())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.SQL, "journal") {
		t.Fatalf("baseline should pick journal (Example 1), got %s", tr.SQL)
	}
	if strings.Contains(tr.SQL, "publication_keyword") {
		t.Fatalf("baseline should not find the keyword path: %s", tr.SQL)
	}
}

func TestPipelinePlusReproducesExample3Fix(t *testing.T) {
	// Example 3: with Templar, "papers" maps to publication.title and the
	// join path goes publication–publication_keyword–keyword–
	// domain_keyword–domain.
	d := exampleDB(t)
	sys := pipelinePlus(d, exampleQFG(t))
	tr, err := sys.Translate("Find papers in the Databases domain", false, exampleKeywords())
	if err != nil {
		t.Fatal(err)
	}
	wantGold := "SELECT p.title FROM publication p, publication_keyword pk, keyword k, domain_keyword dk, domain d WHERE d.name = 'Databases' AND p.pid = pk.pid AND k.kid = pk.kid AND dk.kid = k.kid AND dk.did = d.did"
	gold := sqlparse.MustParse(wantGold)
	if err := gold.Resolve(nil); err != nil {
		t.Fatal(err)
	}
	if tr.SQL != gold.Canonical() {
		t.Fatalf("Pipeline+ SQL:\n  got  %s\n  want %s", tr.SQL, gold.Canonical())
	}
	if tr.Tie {
		t.Fatal("unexpected tie")
	}
}

func TestSelfJoinTranslationExample7(t *testing.T) {
	// "Find papers written by both John and Jane" — two predicates on
	// author.name force a self-join through two writes instances.
	d := exampleDB(t)
	sys := NewSystem("Pipeline", d, embedding.New(), Config{})
	kws := []keyword.Keyword{
		{Text: "papers", Meta: keyword.Metadata{Context: fragment.Select}},
		{Text: "John Smith", Meta: keyword.Metadata{Context: fragment.Where}},
		{Text: "Jane Doe", Meta: keyword.Metadata{Context: fragment.Where}},
	}
	tr, err := sys.Translate("Find papers written by both John Smith and Jane Doe", false, kws)
	if err != nil {
		t.Fatal(err)
	}
	// Both author values survive into the SQL with two author instances.
	if !strings.Contains(tr.SQL, "'John Smith'") || !strings.Contains(tr.SQL, "'Jane Doe'") {
		t.Fatalf("self-join SQL lost a predicate: %s", tr.SQL)
	}
	q := sqlparse.MustParse(tr.Rendered)
	authors := 0
	writes := 0
	for _, f := range q.From {
		switch f.Name {
		case "author":
			authors++
		case "writes":
			writes++
		}
	}
	if authors != 2 || writes != 2 {
		t.Fatalf("FROM = %v, want author x2 and writes x2", q.From)
	}
}

func TestParserNoiseDeterministic(t *testing.T) {
	n := DefaultNaLIRNoise()
	kws := []keyword.Keyword{
		{Text: "papers after 2000", Meta: keyword.Metadata{Context: fragment.Where, Op: ">"}},
	}
	a := n.Corrupt("some query", true, kws)
	b := n.Corrupt("some query", true, kws)
	if len(a) != len(b) {
		t.Fatal("nondeterministic corruption")
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatal("nondeterministic corruption")
		}
	}
	// Original slice unchanged.
	if kws[0].Meta.Op != ">" {
		t.Fatal("Corrupt mutated its input")
	}
}

func TestParserNoiseRates(t *testing.T) {
	n := &ParserNoise{BaseRate: 0, HazardRate: 100}
	kws := []keyword.Keyword{
		{Text: "alpha beta", Meta: keyword.Metadata{Context: fragment.Where, Op: ">", Aggs: []string{"COUNT"}}},
	}
	// Zero base rate: plain queries always pass through unchanged.
	for _, nlq := range []string{"a", "b", "c", "d", "e"} {
		out := n.Corrupt(nlq, false, kws)
		if !reflect.DeepEqual(out[0], kws[0]) {
			t.Fatalf("BaseRate 0 corrupted %q", nlq)
		}
	}
	// 100%% hazard rate: always corrupted (one of the three mutations).
	corruptions := 0
	for _, nlq := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		out := n.Corrupt(nlq, true, kws)
		if !reflect.DeepEqual(out[0], kws[0]) {
			corruptions++
		}
	}
	if corruptions != 7 {
		t.Fatalf("HazardRate 100: corrupted %d/7", corruptions)
	}
	// Nil noise is a no-op.
	var nilNoise *ParserNoise
	if got := nilNoise.Corrupt("x", true, kws); len(got) != 1 || !reflect.DeepEqual(got[0], kws[0]) {
		t.Fatal("nil noise must pass through")
	}
}

func TestNaLIRWeakerThanPipelinePlus(t *testing.T) {
	d := exampleDB(t)
	g := exampleQFG(t)
	nalir := NewSystem("NaLIR", d, embedding.NewLexiconOnly(), Config{Noise: &ParserNoise{BaseRate: 100, HazardRate: 100}})
	// Find an NLQ whose deterministic corruption draw is mutation 0
	// (metadata loss), which destroys the aggregate and operator below.
	nlq := ""
	for _, cand := range []string{"q0", "q1", "q2", "q3", "q4", "q5", "q6"} {
		if (fnv64(cand)/100)%3 == 0 {
			nlq = cand
			break
		}
	}
	if nlq == "" {
		t.Fatal("no mutation-0 NLQ found")
	}
	kws := []keyword.Keyword{
		{Text: "papers", Meta: keyword.Metadata{Context: fragment.Select, Aggs: []string{"COUNT"}}},
		{Text: "after 2000", Meta: keyword.Metadata{Context: fragment.Where, Op: ">"}},
	}
	want := sqlparse.MustParse("SELECT COUNT(p.title) FROM publication p WHERE p.year > 2000")
	_ = want.Resolve(nil)

	plus := pipelinePlus(d, g)
	trP, errP := plus.Translate(nlq, false, kws)
	if errP != nil {
		t.Fatal(errP)
	}
	if trP.SQL != want.Canonical() {
		t.Fatalf("Pipeline+ = %s, want %s", trP.SQL, want.Canonical())
	}
	// Metadata loss turns "year > 2000" into "year = 2000" (empty here)
	// and drops COUNT, so corrupted NaLIR cannot reproduce the gold query.
	trN, errN := nalir.Translate(nlq, false, kws)
	if errN == nil && trN.SQL == want.Canonical() {
		t.Fatalf("metadata-corrupted NaLIR should not match gold: %s", trN.SQL)
	}
}

func TestTranslateTieDetection(t *testing.T) {
	// Two text predicates with identical similarity on symmetric attributes
	// produce a tie in the baseline.
	g := schema.NewGraph()
	_ = g.AddRelation(schema.Relation{Name: "a", Attributes: []schema.Attribute{
		{Name: "id", Type: schema.Number, PrimaryKey: true},
		{Name: "left", Type: schema.Text},
		{Name: "right", Type: schema.Text},
	}})
	d := db.New(g)
	d.MustInsert("a", []db.Value{db.Num(1), db.Str("same value"), db.Str("same value")})
	sys := NewSystem("Pipeline", d, embedding.New(), Config{})
	kws := []keyword.Keyword{
		{Text: "same value", Meta: keyword.Metadata{Context: fragment.Where}},
	}
	tr, err := sys.Translate("find same value", false, kws)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Tie {
		t.Fatalf("expected tie between a.left and a.right, got %s (score %v)", tr.SQL, tr.Score)
	}
}

func TestTranslateNoKeywords(t *testing.T) {
	d := exampleDB(t)
	sys := NewSystem("Pipeline", d, embedding.New(), Config{})
	if _, err := sys.Translate("", false, nil); err == nil {
		t.Fatal("expected error for empty keywords")
	}
}

func TestSystemNames(t *testing.T) {
	d := exampleDB(t)
	m := embedding.New()
	for _, name := range []string{"Pipeline", "Pipeline+", "NaLIR", "NaLIR+"} {
		if got := NewSystem(name, d, m, Config{QFG: exampleQFG(t)}).Name(); got != name {
			t.Fatalf("NewSystem name = %q, want %q", got, name)
		}
	}
	if got := NewFromParts("Templar", keyword.NewMapper(d, m, nil, keyword.Options{}), joinpath.NewGenerator(d.Schema(), nil), Config{}).Name(); got != "Templar" {
		t.Fatalf("NewFromParts name = %q", got)
	}
}

func BenchmarkTranslatePipelinePlus(b *testing.B) {
	d := exampleDB(b)
	sys := pipelinePlus(d, exampleQFG(b))
	kws := exampleKeywords()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Translate("Find papers in the Databases domain", false, kws); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNewSystemMatchesNewFromParts pins NewSystem's wiring to the parts
// a serving layer assembles by hand: a mapper over the snapshot and a
// generator with LogWeights from that same snapshot must produce identical
// configurations and translations.
func TestNewSystemMatchesNewFromParts(t *testing.T) {
	d := exampleDB(t)
	snap := exampleQFG(t)
	kwOpts := keyword.Options{Obscurity: fragment.NoConstOp}
	built := NewSystem("Pipeline+", d, embedding.New(), Config{Keyword: kwOpts, QFG: snap, LogJoin: true})
	parts := NewFromParts("Pipeline+", keyword.NewMapper(d, embedding.New(), snap, kwOpts),
		joinpath.NewGenerator(d.Schema(), joinpath.LogWeights(snap)), Config{})

	kws := exampleKeywords()
	wantCfg, wantErr := parts.TopMappings("", false, kws)
	gotCfg, gotErr := built.TopMappings("", false, kws)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error mismatch: NewSystem=%v NewFromParts=%v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(gotCfg, wantCfg) {
		t.Fatalf("configurations diverged:\nNewSystem:    %v\nNewFromParts: %v", gotCfg, wantCfg)
	}
	wantTr, err := parts.Translate("", false, kws)
	if err != nil {
		t.Fatal(err)
	}
	gotTr, err := built.Translate("", false, kws)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTr, wantTr) {
		t.Fatalf("translations diverged:\nNewSystem:    %+v\nNewFromParts: %+v", gotTr, wantTr)
	}

	// A nil snapshot, typed or not, degrades to the log-free baseline.
	for _, baseline := range []*System{
		NewSystem("Pipeline", d, embedding.New(), Config{Keyword: kwOpts}),
		NewSystem("Pipeline", d, embedding.New(), Config{Keyword: kwOpts, QFG: (*qfg.Snapshot)(nil), LogJoin: true}),
	} {
		cfgs, err := baseline.TopMappings("", false, kws)
		if err != nil {
			t.Fatal(err)
		}
		if cfgs[0].QFGScore != 0 || cfgs[0].Score != cfgs[0].SimScore {
			t.Fatalf("nil snapshot must yield the λ=1 baseline: %+v", cfgs[0])
		}
	}
}

// TestTranslateRefusesUnparseableSQL: metadata a library caller passes
// unchecked must fail the translation rather than be spliced into served
// SQL text. Keywords strconv reads as ±Inf or NaN are words, never
// numeric predicates: whatever they translate to carries neither.
func TestTranslateRefusesUnparseableSQL(t *testing.T) {
	d := exampleDB(t)
	sys := pipelinePlus(d, exampleQFG(t))
	for name, kws := range map[string][]keyword.Keyword{
		"injected agg": {{Text: "papers", Meta: keyword.Metadata{Context: fragment.Select, Aggs: []string{"x) FROM t; DROP TABLE u; --"}}}},
		"injected op": {
			{Text: "papers", Meta: keyword.Metadata{Context: fragment.Select}},
			{Text: "after 2000", Meta: keyword.Metadata{Context: fragment.Where, Op: "> 0; DROP TABLE u; --"}},
		},
	} {
		tr, err := sys.Translate("", false, kws)
		if err == nil {
			t.Fatalf("%s: translated to %q", name, tr.Rendered)
		}
		// An operator the numeric index does not know matches no
		// attribute, so that keyword fails in the mapper instead.
		if name != "injected op" && !strings.Contains(err.Error(), "generated unparseable SQL") {
			t.Fatalf("%s: error %v, want the unparseable-SQL guard", name, err)
		}
	}
	for _, kw := range []keyword.Keyword{
		{Text: "inf", Meta: keyword.Metadata{Context: fragment.Where, Op: "<"}},
		{Text: "Infinity", Meta: keyword.Metadata{Context: fragment.Where, Op: ">"}},
		{Text: "nan", Meta: keyword.Metadata{Context: fragment.Where, Op: "!="}},
		{Text: "-Inf", Meta: keyword.Metadata{Context: fragment.Where}},
	} {
		tr, err := sys.Translate("", false, []keyword.Keyword{{Text: "papers", Meta: keyword.Metadata{Context: fragment.Select}}, kw})
		if err != nil {
			if strings.Contains(err.Error(), "generated unparseable SQL") {
				t.Fatalf("%q: %v; want it mapped as a word", kw.Text, err)
			}
			continue
		}
		for _, m := range tr.Config.Mappings {
			if m.Value.Kind == sqlparse.NumberVal {
				t.Fatalf("%q: mapped to numeric predicate %v", kw.Text, m)
			}
		}
		if strings.Contains(tr.SQL, "+Inf") || strings.Contains(tr.SQL, "-Inf") || strings.Contains(tr.SQL, "NaN") {
			t.Fatalf("%q: translated to %q", kw.Text, tr.SQL)
		}
	}
}
