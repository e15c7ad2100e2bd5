// Command templar-translate translates benchmark NLQs to SQL with any of
// the four evaluated systems, showing the ranked keyword configurations,
// the inferred join path, and the final SQL — the paper's §III-F example
// execution, end to end.
//
// Usage:
//
//	templar-translate -dataset mas -list                 # list task ids
//	templar-translate -dataset mas -task mas/papersInDomain/00
//	templar-translate -dataset mas -task ... -system Pipeline
//	templar-translate -dataset yelp -keywords "customers:select;Golden Cactus Grill:where"
//
// With -server, the translation runs against a live templar-serve
// process through the v2 API and the Go SDK (templar/pkg/client) instead
// of building an engine in-process — the round-trip proof that the wire
// contract carries the full pipeline:
//
//	templar-translate -server http://localhost:8080 -dataset mas -keywords "papers:select;Databases:where"
//	templar-translate -server http://localhost:8080 -dataset mas -task mas/papersInDomain/00
//
// (Server mode translates with the server's engine — always Pipeline+
// over the server's own log — so -system and the leave-one-out QFG below
// do not apply.)
//
// In local mode the QFG is built from the gold SQL of every benchmark
// task EXCEPT the one being translated (leave-one-out), so the
// demonstrated translation never relies on its own gold query.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/eval"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
	"templar/pkg/api"
	"templar/pkg/client"
)

func main() {
	var (
		dataset  = flag.String("dataset", "mas", "benchmark dataset (mas, yelp, imdb)")
		list     = flag.Bool("list", false, "list task ids and exit")
		taskID   = flag.String("task", "", "benchmark task id to translate")
		system   = flag.String("system", "Pipeline+", "system (Pipeline, Pipeline+, NaLIR, NaLIR+); local mode only")
		keywords = flag.String("keywords", "", "ad-hoc keywords: 'text:context[:op|:agg]' separated by ';'")
		kappa    = flag.Int("kappa", 5, "kappa")
		lambda   = flag.Float64("lambda", 0.8, "lambda")
		server   = flag.String("server", "", "translate against a running templar-serve base URL via the v2 API instead of in-process")
		timeout  = flag.Duration("timeout", 30*time.Second, "server mode: per-request deadline")
	)
	flag.Parse()

	ds, ok := datasets.ByName(*dataset)
	if !ok {
		fatal(fmt.Errorf("unknown dataset %q", *dataset))
	}
	if *list {
		for _, t := range ds.Tasks {
			fmt.Printf("%-36s %s\n", t.ID, t.NLQ)
		}
		return
	}

	var kws []keyword.Keyword
	var nlq string
	var gold string
	hazard := false
	switch {
	case *taskID != "":
		for _, t := range ds.Tasks {
			if t.ID == *taskID {
				kws, nlq, gold, hazard = t.Keywords, t.NLQ, t.GoldCanonical, t.Hazard
			}
		}
		if kws == nil {
			fatal(fmt.Errorf("unknown task %q (use -list)", *taskID))
		}
	case *keywords != "":
		var err error
		kws, err = keyword.ParseSpec(*keywords)
		if err != nil {
			fatal(err)
		}
		nlq = *keywords
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *server != "" {
		serverMode(*server, *dataset, *timeout, kws, nlq, gold)
		return
	}

	graph, err := buildQFG(ds, *taskID)
	if err != nil {
		fatal(err)
	}
	var name eval.SystemName
	for _, n := range eval.AllSystems() {
		if strings.EqualFold(string(n), *system) {
			name = n
		}
	}
	opts := eval.Options{K: *kappa, Lambda: *lambda, Obscurity: fragment.NoConstOp}
	sys, err := eval.NewSystem(ds, name, embedding.New(), graph, opts)
	if err != nil {
		fatal(fmt.Errorf("unknown system %q", *system))
	}

	fmt.Printf("NLQ:      %s\n", nlq)
	fmt.Printf("System:   %s\n", sys.Name())
	configs, err := sys.TopMappings(nlq, hazard, kws)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Top keyword-mapping configurations:")
	for i, cfg := range configs {
		if i >= 3 {
			break
		}
		fmt.Printf("  #%d score=%.3f (sim=%.3f qfg=%.3f)\n", i+1, cfg.Score, cfg.SimScore, cfg.QFGScore)
		for _, m := range cfg.Mappings {
			fmt.Printf("     %s\n", m)
		}
	}
	tr, err := sys.Translate(nlq, hazard, kws)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Join path: %s (weight %.3f)\n", tr.Path, tr.Path.TotalWeight)
	fmt.Printf("SQL:       %s\n", tr.Rendered)
	if tr.Tie {
		fmt.Println("WARNING: another query tied for the top rank")
	}
	if gold != "" {
		verdict := "MISMATCH"
		if tr.SQL == gold && !tr.Tie {
			verdict = "MATCH"
		}
		fmt.Printf("Gold:      %s\nVerdict:   %s\n", gold, verdict)
	}
}

// serverMode round-trips the translation through a running server's v2
// API with the Go SDK: keywords out, ranked configurations, join path and
// SQL back, structured errors decoded by code.
func serverMode(base, dataset string, timeout time.Duration, kws []keyword.Keyword, nlq, gold string) {
	c, err := client.New(base)
	if err != nil {
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	fmt.Printf("NLQ:      %s\n", nlq)
	fmt.Printf("System:   %s @ %s (v2 API)\n", dataset, base)
	in := wireKeywords(kws)
	mk, err := c.MapKeywords(ctx, dataset, api.MapKeywordsRequest{KeywordsInput: in, TopK: 3})
	if err != nil {
		fatal(err)
	}
	fmt.Println("Top keyword-mapping configurations:")
	for i, cfg := range mk.Configurations {
		fmt.Printf("  #%d score=%.3f (sim=%.3f qfg=%.3f)\n", i+1, cfg.Score, cfg.SimScore, cfg.QFGScore)
		for _, m := range cfg.Mappings {
			fmt.Printf("     %s -> %s (%.3f)\n", m.Keyword, m.Fragment, m.Sim)
		}
	}
	tr, err := c.TranslateOne(ctx, dataset, in)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Join path: %s (weight %.3f)\n", strings.Join(tr.Path.Relations, "-"), tr.Path.TotalWeight)
	fmt.Printf("SQL:       %s\n", tr.Rendered)
	if tr.Tie {
		fmt.Println("WARNING: another query tied for the top rank")
	}
	if gold != "" {
		verdict := "MISMATCH"
		if tr.SQL == gold && !tr.Tie {
			verdict = "MATCH"
		}
		fmt.Printf("Gold:      %s\nVerdict:   %s\n", gold, verdict)
	}
}

// wireKeywords converts parsed keywords to the structured wire form.
func wireKeywords(kws []keyword.Keyword) api.KeywordsInput {
	out := make([]api.Keyword, len(kws))
	for i, kw := range kws {
		kj := api.Keyword{Text: kw.Text, Op: kw.Meta.Op, GroupBy: kw.Meta.GroupBy}
		switch kw.Meta.Context {
		case fragment.Select:
			kj.Context = "select"
		case fragment.From:
			kj.Context = "from"
		default:
			kj.Context = "where"
		}
		if len(kw.Meta.Aggs) > 0 {
			kj.Agg = kw.Meta.Aggs[0]
		}
		out[i] = kj
	}
	return api.KeywordsInput{Keywords: out}
}

// buildQFG folds every benchmark gold query except the held-out task.
func buildQFG(ds *datasets.Dataset, holdout string) (*qfg.Snapshot, error) {
	var entries []sqlparse.LogEntry
	for _, t := range ds.Tasks {
		if t.ID == holdout {
			continue
		}
		q, err := sqlparse.Parse(t.Gold)
		if err != nil {
			return nil, err
		}
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	return qfg.Build(entries, fragment.NoConstOp)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "templar-translate:", err)
	os.Exit(1)
}
