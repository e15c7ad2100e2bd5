// Quickstart: build a Query Fragment Graph from a SQL log, augment keyword
// mapping and join path inference with it, and translate one natural
// language query — the smallest end-to-end use of the Templar API.
package main

import (
	"fmt"
	"log"

	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/nlidb"
	"templar/internal/qfg"
	"templar/internal/schema"
	"templar/internal/sqlparse"
)

func main() {
	// 1. Declare a schema: journals publish publications.
	g := schema.NewGraph()
	must(g.AddRelation(schema.Relation{Name: "journal", Attributes: []schema.Attribute{
		{Name: "jid", Type: schema.Number, PrimaryKey: true},
		{Name: "name", Type: schema.Text},
	}}))
	must(g.AddRelation(schema.Relation{Name: "publication", Attributes: []schema.Attribute{
		{Name: "pid", Type: schema.Number, PrimaryKey: true},
		{Name: "title", Type: schema.Text},
		{Name: "year", Type: schema.Number},
		{Name: "jid", Type: schema.Number},
	}}))
	must(g.AddForeignKey(schema.ForeignKey{FromRel: "publication", FromAttr: "jid", ToRel: "journal", ToAttr: "jid"}))

	// 2. Load some rows.
	d := db.New(g)
	d.MustInsert("journal", []db.Value{db.Num(1), db.Str("TKDE")})
	d.MustInsert("journal", []db.Value{db.Num(2), db.Str("TMC")})
	d.MustInsert("publication", []db.Value{db.Num(10), db.Str("Adaptive Query Planning"), db.Num(2004), db.Num(1)})
	d.MustInsert("publication", []db.Value{db.Num(11), db.Str("Mobile Handoff Studies"), db.Num(1999), db.Num(2)})
	d.MustInsert("publication", []db.Value{db.Num(12), db.Str("Streaming Join Processing"), db.Num(2010), db.Num(1)})

	// 3. Mine the SQL query log into a Query Fragment Graph (Figure 3).
	logText := `
25x: SELECT j.name FROM journal j
8x: SELECT p.title FROM publication p WHERE p.year > 2003
3x: SELECT p.title FROM journal j, publication p WHERE j.name = 'TMC' AND p.jid = j.jid
`
	entries, err := sqlparse.ParseLog(logText)
	must(err)
	graph, err := qfg.Build(entries, fragment.NoConstOp)
	must(err)
	fmt.Printf("QFG: %d fragments over %d logged queries\n", graph.Vertices(), graph.Queries())

	// 4. Assemble a Templar-augmented pipeline NLIDB and translate the NLQ
	// "Return the papers after 2000" (the paper's Example 4). The NLIDB
	// front-end has already parsed it into keywords with metadata.
	sys := nlidb.NewSystem("Pipeline+", d, embedding.New(), nlidb.Config{
		Keyword: keyword.Options{Obscurity: fragment.NoConstOp},
		QFG:     graph,
		LogJoin: true,
	})
	kws := []keyword.Keyword{
		{Text: "papers", Meta: keyword.Metadata{Context: fragment.Select}},
		{Text: "after 2000", Meta: keyword.Metadata{Context: fragment.Where, Op: ">"}},
	}
	tr, err := sys.Translate("Return the papers after 2000", false, kws)
	must(err)
	fmt.Printf("SQL: %s\n", tr.Rendered)

	// 5. Execute the translated SQL against the database.
	q, err := sqlparse.Parse(tr.Rendered)
	must(err)
	res, err := d.Execute(q)
	must(err)
	fmt.Print(res)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
