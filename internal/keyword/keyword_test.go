package keyword

import (
	"math"
	"testing"

	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/schema"
	"templar/internal/sqlparse"
)

// masMini builds a small MAS-shaped database with journal/publication
// ambiguity, plus a query log reproducing the paper's running example.
func masMini(t testing.TB) *db.Database {
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
	must(g.AddRelation(schema.Relation{Name: "publication", Attributes: []schema.Attribute{num("pid", true), text("title"), num("year", false), num("jid", false)}}))
	must(g.AddRelation(schema.Relation{Name: "domain", Attributes: []schema.Attribute{num("did", true), text("name")}}))
	must(g.AddForeignKey(schema.ForeignKey{FromRel: "publication", FromAttr: "jid", ToRel: "journal", ToAttr: "jid"}))
	d := db.New(g)
	d.MustInsert("journal", []db.Value{db.Num(1), db.Str("TKDE")})
	d.MustInsert("journal", []db.Value{db.Num(2), db.Str("TMC")})
	d.MustInsert("publication", []db.Value{db.Num(10), db.Str("Query Processing at Scale"), db.Num(2001), db.Num(1)})
	d.MustInsert("publication", []db.Value{db.Num(11), db.Str("Mobile Networks"), db.Num(1998), db.Num(2)})
	d.MustInsert("domain", []db.Value{db.Num(100), db.Str("Databases")})
	d.MustInsert("domain", []db.Value{db.Num(101), db.Str("Networking")})
	return d
}

// paperishLog builds a QFG in which publication.title co-occurs with year
// predicates and journal-name predicates, as in Figure 3.
func paperishLog(t testing.TB, ob fragment.Obscurity) *qfg.Snapshot {
	t.Helper()
	log := `
25x: SELECT j.name FROM journal j
8x: SELECT p.title FROM publication p WHERE p.year > 2003
6x: SELECT p.title FROM journal j, publication p WHERE j.name = 'TMC' AND p.jid = j.jid
4x: SELECT p.title FROM publication p, domain d WHERE d.name = 'Databases'
`
	entries, err := sqlparse.ParseLog(log)
	if err != nil {
		t.Fatal(err)
	}
	g, err := qfg.Build(entries, ob)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newMapper(t testing.TB, withQFG bool, opts Options) *Mapper {
	t.Helper()
	d := masMini(t)
	var snap *qfg.Snapshot
	if withQFG {
		snap = paperishLog(t, opts.Obscurity)
	}
	return NewMapper(d, embedding.New(), snap, opts)
}

func TestExtractNumber(t *testing.T) {
	if n, ok := extractNumber("after 2000"); !ok || n != 2000 {
		t.Fatalf("extractNumber = %v %v", n, ok)
	}
	if n, ok := extractNumber("3.5 stars"); !ok || n != 3.5 {
		t.Fatalf("extractNumber = %v %v", n, ok)
	}
	if _, ok := extractNumber("papers"); ok {
		t.Fatal("no number expected")
	}
	if got := stripNumber("after 2000"); got != "after" {
		t.Fatalf("stripNumber = %q", got)
	}
	if got := stripNumber("2000"); got != "" {
		t.Fatalf("stripNumber = %q", got)
	}
	// Tokens strconv reads as ±Inf or NaN are words, not numbers.
	for _, s := range []string{"inf", "+Inf", "-infinity", "Infinity", "nan", "NaN", "Nan Goldin"} {
		if n, ok := extractNumber(s); ok {
			t.Errorf("extractNumber(%q) = %v, want no number", s, n)
		}
		if got := stripNumber(s); got != s {
			t.Errorf("stripNumber(%q) = %q, want it unchanged", s, got)
		}
	}
	if n, ok := extractNumber("nan 1999"); !ok || n != 1999 {
		t.Fatalf("extractNumber skips words: %v %v", n, ok)
	}
}

func TestKeywordCandsNumeric(t *testing.T) {
	m := newMapper(t, false, Options{})
	cands := m.keywordCands(Keyword{Text: "after 2000", Meta: Metadata{Context: fragment.Where, Op: ">"}}, nil)
	if len(cands) != 1 {
		t.Fatalf("cands = %v", cands)
	}
	c := cands[0]
	if c.Kind != KindPred || c.Qualified() != "publication.year" || c.Op != ">" || c.Value.N != 2000 {
		t.Fatalf("cand = %+v", c)
	}
}

func TestKeywordCandsFromContext(t *testing.T) {
	m := newMapper(t, false, Options{})
	cands := m.keywordCands(Keyword{Text: "papers", Meta: Metadata{Context: fragment.From}}, nil)
	if len(cands) != 3 {
		t.Fatalf("cands = %v", cands)
	}
	for _, c := range cands {
		if c.Kind != KindRelation {
			t.Fatalf("cand = %+v", c)
		}
	}
}

func TestKeywordCandsSelectContext(t *testing.T) {
	m := newMapper(t, false, Options{})
	cands := m.keywordCands(Keyword{Text: "papers", Meta: Metadata{Context: fragment.Select, Aggs: []string{"COUNT"}}}, nil)
	// All non-key attributes: journal.name, publication.title,
	// publication.year, domain.name (ids are excluded).
	if len(cands) != 4 {
		t.Fatalf("cands = %d: %v", len(cands), cands)
	}
	for _, c := range cands {
		if c.Kind != KindAttr || c.Agg != "COUNT" {
			t.Fatalf("cand = %+v", c)
		}
	}
}

func TestKeywordCandsTextPredicate(t *testing.T) {
	m := newMapper(t, false, Options{})
	cands := m.keywordCands(Keyword{Text: "Databases", Meta: Metadata{Context: fragment.Where}}, nil)
	found := false
	for _, c := range cands {
		if c.Kind == KindPred && c.Qualified() == "domain.name" && c.Value.S == "Databases" {
			found = true
		}
	}
	if !found {
		t.Fatalf("domain.name = 'Databases' not among candidates: %v", cands)
	}
}

func TestScoreAndPruneExactMatchExpelsOthers(t *testing.T) {
	m := newMapper(t, false, Options{})
	kw := Keyword{Text: "TKDE", Meta: Metadata{Context: fragment.Where}}
	cands := m.keywordCands(kw, nil)
	pruned := m.scoreAndPrune(kw, cands, m.opts)
	if len(pruned) != 1 {
		t.Fatalf("pruned = %v", pruned)
	}
	if pruned[0].Value.S != "TKDE" || pruned[0].Sim < 0.98 {
		t.Fatalf("pruned[0] = %+v", pruned[0])
	}
}

func TestPruneKeepsTopKWithTies(t *testing.T) {
	m := NewMapper(masMini(t), embedding.New(), nil, Options{K: 2})
	sorted := []Mapping{
		{Keyword: "x", Kind: KindRelation, Rel: "a", Sim: 0.9},
		{Keyword: "x", Kind: KindRelation, Rel: "b", Sim: 0.5},
		{Keyword: "x", Kind: KindRelation, Rel: "c", Sim: 0.5},
		{Keyword: "x", Kind: KindRelation, Rel: "d", Sim: 0.4},
	}
	got := prune(sorted, m.opts.K, m.opts.Epsilon)
	if len(got) != 3 { // top-2 plus the tie at 2nd place
		t.Fatalf("prune = %v", got)
	}
	// Zero-similarity candidates are dropped when any positive one exists.
	sorted2 := []Mapping{
		{Keyword: "x", Kind: KindRelation, Rel: "a", Sim: 0.9},
		{Keyword: "x", Kind: KindRelation, Rel: "b", Sim: 0},
	}
	if got := prune(sorted2, m.opts.K, m.opts.Epsilon); len(got) != 1 {
		t.Fatalf("prune zero = %v", got)
	}
}

func TestMapKeywordsBaselinePrefersJournal(t *testing.T) {
	// Without log evidence, the similarity model's deliberate ambiguity
	// maps "papers" (SELECT) to journal.name over publication.title
	// (Example 1's failure mode).
	m := newMapper(t, false, Options{})
	configs, err := m.MapKeywords([]Keyword{
		{Text: "papers", Meta: Metadata{Context: fragment.Select}},
		{Text: "Databases", Meta: Metadata{Context: fragment.Where}},
	})
	if err != nil {
		t.Fatal(err)
	}
	top := configs[0]
	if top.Mappings[0].Qualified() != "journal.name" {
		t.Fatalf("baseline top mapping = %v, want journal.name (the wrong-but-expected choice)", top.Mappings[0])
	}
}

func TestMapKeywordsQFGCorrectsToPublication(t *testing.T) {
	// With the Figure 3-style log, p.title co-occurs with domain-name
	// predicates while j.name never does, so Templar flips the top choice
	// to publication.title (Example 3).
	m := newMapper(t, true, Options{Obscurity: fragment.NoConstOp})
	configs, err := m.MapKeywords([]Keyword{
		{Text: "papers", Meta: Metadata{Context: fragment.Select}},
		{Text: "Databases", Meta: Metadata{Context: fragment.Where}},
	})
	if err != nil {
		t.Fatal(err)
	}
	top := configs[0]
	if top.Mappings[0].Qualified() != "publication.title" {
		for i, c := range configs[:min(4, len(configs))] {
			t.Logf("config %d: %v sim=%.3f qfg=%.3f score=%.3f", i, c.Mappings, c.SimScore, c.QFGScore, c.Score)
		}
		t.Fatalf("QFG-augmented top mapping = %v, want publication.title", top.Mappings[0])
	}
	if top.QFGScore <= 0 {
		t.Fatalf("QFGScore = %v, want > 0", top.QFGScore)
	}
}

func TestConfigurationScoresGeometricMean(t *testing.T) {
	m := newMapper(t, false, Options{})
	cfg := Configuration{Mappings: []Mapping{
		{Kind: KindAttr, Rel: "publication", Attr: "title", Sim: 0.5},
		{Kind: KindPred, Rel: "domain", Attr: "name", Op: "=", Sim: 0.8,
			Value: sqlparse.Value{Kind: sqlparse.StringVal, S: "Databases"}},
	}}
	m.scoreConfigAdhoc(&cfg)
	want := math.Sqrt(0.5 * 0.8)
	if math.Abs(cfg.SimScore-want) > 1e-9 {
		t.Fatalf("SimScore = %v, want %v", cfg.SimScore, want)
	}
	// Baseline (nil QFG) pins lambda to 1.
	if cfg.Score != cfg.SimScore {
		t.Fatalf("Score = %v, want SimScore %v", cfg.Score, cfg.SimScore)
	}
}

func TestLambdaBlending(t *testing.T) {
	m := newMapper(t, true, Options{Lambda: 0.8, Obscurity: fragment.NoConstOp})
	configs, err := m.MapKeywords([]Keyword{
		{Text: "papers", Meta: Metadata{Context: fragment.Select}},
		{Text: "after 2000", Meta: Metadata{Context: fragment.Where, Op: ">"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range configs {
		want := 0.8*c.SimScore + 0.2*c.QFGScore
		if math.Abs(c.Score-want) > 1e-9 {
			t.Fatalf("Score = %v, want %v", c.Score, want)
		}
	}
}

func TestMapKeywordsNoCandidates(t *testing.T) {
	m := newMapper(t, false, Options{})
	_, err := m.MapKeywords([]Keyword{
		{Text: "zebra unicorn", Meta: Metadata{Context: fragment.Where}},
	})
	if err == nil {
		t.Fatal("expected no-candidates error")
	}
	if _, err := m.MapKeywords(nil); err == nil {
		t.Fatal("expected empty-keywords error")
	}
}

func TestConfigurationCap(t *testing.T) {
	m := newMapper(t, false, Options{MaxConfigurations: 3, K: 10})
	configs, err := m.MapKeywords([]Keyword{
		{Text: "papers", Meta: Metadata{Context: fragment.Select}},
		{Text: "name", Meta: Metadata{Context: fragment.Select}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) > 3 {
		t.Fatalf("configs = %d, want <= 3", len(configs))
	}
}

func TestMappingFragmentRendering(t *testing.T) {
	mp := Mapping{Kind: KindPred, Rel: "publication", Attr: "year", Op: ">",
		Value: sqlparse.Value{Kind: sqlparse.NumberVal, N: 2000}}
	if f := mp.Fragment(fragment.NoConstOp); f.Expr != "publication.year ?op ?val" {
		t.Fatalf("Fragment = %v", f)
	}
	mp2 := Mapping{Kind: KindAttr, Rel: "publication", Attr: "title", Agg: "COUNT"}
	if f := mp2.Fragment(fragment.Full); f.Expr != "COUNT(publication.title)" {
		t.Fatalf("Fragment = %v", f)
	}
	mp3 := Mapping{Kind: KindRelation, Rel: "journal"}
	if f := mp3.Fragment(fragment.Full); f.Context != fragment.From || f.Expr != "journal" {
		t.Fatalf("Fragment = %v", f)
	}
}

func TestKindString(t *testing.T) {
	if KindRelation.String() != "relation" || KindAttr.String() != "attribute" || KindPred.String() != "predicate" {
		t.Fatal("Kind names")
	}
}

func TestNumericKeywordWithoutResidualText(t *testing.T) {
	m := newMapper(t, false, Options{})
	configs, err := m.MapKeywords([]Keyword{
		{Text: "2001", Meta: Metadata{Context: fragment.Where, Op: "="}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if configs[0].Mappings[0].Sim != 0.5 {
		t.Fatalf("neutral numeric score = %v, want 0.5", configs[0].Mappings[0].Sim)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkMapKeywords(b *testing.B) {
	m := newMapper(b, true, Options{Obscurity: fragment.NoConstOp})
	kws := []Keyword{
		{Text: "papers", Meta: Metadata{Context: fragment.Select}},
		{Text: "Databases", Meta: Metadata{Context: fragment.Where}},
		{Text: "after 2000", Meta: Metadata{Context: fragment.Where, Op: ">"}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.MapKeywords(kws); err != nil {
			b.Fatal(err)
		}
	}
}
