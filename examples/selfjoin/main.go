// Selfjoin: the paper's Example 7. "Find papers written by both X and Y"
// maps two keywords onto the same attribute (author.name), so the relation
// bag contains author twice. Join path inference forks the schema graph
// (Algorithm 4, Figure 4), cloning author AND the writes junction while
// sharing publication, and SQL construction emits two aliased instances of
// each.
package main

import (
	"fmt"
	"log"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/joinpath"
	"templar/internal/nlidb"
	"templar/internal/sqlparse"
)

func main() {
	ds := datasets.MAS()
	var task datasets.Task
	for _, t := range ds.Tasks {
		if t.Template == "papersByTwoAuthors" {
			task = t
			break
		}
	}
	fmt.Printf("NLQ: %s\n\n", task.NLQ)

	// The forked join path, directly from INFERJOINS.
	gen := joinpath.NewGenerator(ds.DB.Schema(), nil)
	paths, err := gen.Infer([]string{"author", "author", "publication"}, 1)
	must(err)
	p := paths[0]
	fmt.Println("Forked join path (Figure 4b):")
	fmt.Printf("  instances: %v\n", p.Relations)
	for _, e := range p.Edges {
		fmt.Printf("  join: %s\n", e)
	}

	// End-to-end translation; even the log-free baseline handles the
	// fork — self-joins are a structural capability, not a log feature.
	sys := nlidb.NewSystem("Pipeline", ds.DB, embedding.New(), nlidb.Config{})
	tr, err := sys.Translate(task.NLQ, false, task.Keywords)
	must(err)
	fmt.Printf("\nSQL: %s\n", tr.Rendered)

	q, err := sqlparse.Parse(tr.Rendered)
	must(err)
	res, err := ds.DB.Execute(q)
	must(err)
	fmt.Printf("Execution returns %d rows (papers co-authored by both).\n", len(res.Rows))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
