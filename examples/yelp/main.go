// Yelp: equal-length join path ties. The user relation reaches business
// through review or through tip — two-edge paths either way — so uniform
// weights tie and the baseline returns an ambiguous result. Log-driven
// weights (Table IV's LogJoin) break the tie toward the path users actually
// query.
package main

import (
	"fmt"
	"log"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/joinpath"
	"templar/internal/keyword"
	"templar/internal/nlidb"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
)

func main() {
	ds := datasets.Yelp()
	const taskID = "yelp/usersWhoReviewedBusiness/00"
	var task datasets.Task
	var entries []sqlparse.LogEntry
	for _, t := range ds.Tasks {
		if t.ID == taskID {
			task = t
			continue
		}
		q, err := sqlparse.Parse(t.Gold)
		must(err)
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	graph, err := qfg.Build(entries, fragment.NoConstOp)
	must(err)

	fmt.Printf("NLQ: %s\n\n", task.NLQ)

	// Raw join inference for the bag {user, business}: uniform weights
	// produce two tied shortest paths.
	uniform := joinpath.NewGenerator(ds.DB.Schema(), nil)
	paths, err := uniform.Infer([]string{"user", "business"}, 3)
	must(err)
	fmt.Println("Uniform weights (baseline):")
	for _, p := range paths {
		fmt.Printf("  %-28s weight=%.3f\n", p, p.TotalWeight)
	}

	logw := joinpath.NewGenerator(ds.DB.Schema(), joinpath.LogWeights(graph))
	paths, err = logw.Infer([]string{"user", "business"}, 3)
	must(err)
	fmt.Println("Log-driven weights (Templar):")
	for _, p := range paths {
		fmt.Printf("  %-28s weight=%.3f\n", p, p.TotalWeight)
	}
	fmt.Printf("Dice(user, review) relations: %.3f; Dice(user, tip): %.3f\n\n",
		graph.DiceRelations("user", "review"), graph.DiceRelations("user", "tip"))

	// End to end: the baseline ties, Pipeline+ resolves.
	model := embedding.New()
	opts := keyword.Options{Obscurity: fragment.NoConstOp}
	base := nlidb.NewSystem("Pipeline", ds.DB, model, nlidb.Config{Keyword: opts})
	trBase, err := base.Translate(task.NLQ, task.Hazard, task.Keywords)
	must(err)
	fmt.Printf("Pipeline:  %s\n  tie for first place: %v\n", trBase.Rendered, trBase.Tie)

	plus := nlidb.NewSystem("Pipeline+", ds.DB, model, nlidb.Config{Keyword: opts, QFG: graph, LogJoin: true})
	trPlus, err := plus.Translate(task.NLQ, task.Hazard, task.Keywords)
	must(err)
	fmt.Printf("Pipeline+: %s\n  tie for first place: %v\n", trPlus.Rendered, trPlus.Tie)
	fmt.Printf("Pipeline+ matches gold: %v\n", trPlus.SQL == task.GoldCanonical && !trPlus.Tie)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
