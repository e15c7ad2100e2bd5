package templar_test

import (
	"context"
	"fmt"

	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/schema"
	"templar/internal/sqlparse"
	"templar/internal/templar"
)

// ExampleNewLive mines a SQL log into a QFG, builds an engine over it, and
// makes the three calls: keyword mapping, join inference and the full
// NLQ→SQL translation of "Return the papers after 2000" (the paper's
// Example 4).
func ExampleNewLive() {
	ctx := context.Background()
	database := exampleDatabase()
	logText := `
25x: SELECT j.name FROM journal j
8x: SELECT p.title FROM publication p WHERE p.year > 2003
3x: SELECT p.title FROM journal j, publication p WHERE j.name = 'TMC' AND p.jid = j.jid
`
	kws := []keyword.Keyword{
		{Text: "papers", Meta: keyword.Metadata{Context: fragment.Select}},
		{Text: "after 2000", Meta: keyword.Metadata{Context: fragment.Where, Op: ">"}},
	}

	entries, _ := sqlparse.ParseLog(logText) // mine the SQL log
	graph, _ := qfg.Build(entries, fragment.NoConstOp)
	sys := templar.NewLive(database, embedding.New(), graph, templar.Options{LogJoin: true})

	configs, _ := sys.MapKeywords(ctx, kws, nil) // ranked keyword mappings
	paths, _ := sys.InferJoins(ctx, []string{"publication", "journal"}, &templar.CallOptions{TopK: 3})
	tr, _ := sys.Translate(ctx, kws, nil) // full NLQ→SQL pipeline

	fmt.Println(configs[0].Mappings[0].Qualified(), configs[0].Mappings[1].Qualified())
	fmt.Println(paths[0].Edges[0])
	fmt.Println(tr.Rendered)
	// Output:
	// publication.title publication.year
	// publication.jid = journal.jid
	// SELECT t1.title FROM publication t1 WHERE t1.year > 2000
}

// exampleDatabase declares a schema where journals publish publications
// and loads a few rows.
func exampleDatabase() *db.Database {
	g := schema.NewGraph()
	_ = g.AddRelation(schema.Relation{Name: "journal", Attributes: []schema.Attribute{
		{Name: "jid", Type: schema.Number, PrimaryKey: true},
		{Name: "name", Type: schema.Text},
	}})
	_ = g.AddRelation(schema.Relation{Name: "publication", Attributes: []schema.Attribute{
		{Name: "pid", Type: schema.Number, PrimaryKey: true},
		{Name: "title", Type: schema.Text},
		{Name: "year", Type: schema.Number},
		{Name: "jid", Type: schema.Number},
	}})
	_ = g.AddForeignKey(schema.ForeignKey{FromRel: "publication", FromAttr: "jid", ToRel: "journal", ToAttr: "jid"})
	d := db.New(g)
	d.MustInsert("journal", []db.Value{db.Num(1), db.Str("TKDE")})
	d.MustInsert("journal", []db.Value{db.Num(2), db.Str("TMC")})
	d.MustInsert("publication", []db.Value{db.Num(10), db.Str("Adaptive Query Planning"), db.Num(2004), db.Num(1)})
	d.MustInsert("publication", []db.Value{db.Num(11), db.Str("Mobile Handoff Studies"), db.Num(1999), db.Num(2)})
	return d
}
