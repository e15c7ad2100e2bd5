package eval

import (
	"fmt"
	"sort"
	"strings"

	"templar/internal/datasets"
	"templar/internal/embedding"
)

// TemplateBreakdown runs the cross-validated evaluation of one system and
// reports per-template KW/FQ accuracy — the error-analysis view behind
// §VII-C, showing exactly which query shapes a system wins and loses.
func TemplateBreakdown(ds *datasets.Dataset, system SystemName, opts Options) (string, error) {
	opts = opts.withDefaults()
	folds := splitFolds(len(ds.Tasks), opts.Folds, opts.Seed)
	model := embedding.New()

	perTemplate := make(map[string]*Metrics)
	var order []string
	note := func(template string, m Metrics) {
		cur := perTemplate[template]
		if cur == nil {
			cur = &Metrics{}
			perTemplate[template] = cur
			order = append(order, template)
		}
		cur.Add(m)
	}

	for trial := 0; trial < opts.Folds; trial++ {
		graph, err := trainQFG(ds, folds, trial, opts.Obscurity)
		if err != nil {
			return "", err
		}
		sys, err := NewSystem(ds, system, model, graph, opts)
		if err != nil {
			return "", err
		}
		for _, ti := range folds[trial] {
			task := ds.Tasks[ti]
			note(task.Template, scoreTask(sys, task))
		}
	}

	sort.Strings(order)
	var b strings.Builder
	fmt.Fprintf(&b, "Per-template breakdown: %s on %s\n", system, ds.Name)
	fmt.Fprintf(&b, "%-28s %-6s %-8s %-8s\n", "Template", "Tasks", "KW (%)", "FQ (%)")
	var total Metrics
	for _, tpl := range order {
		m := perTemplate[tpl]
		total.Add(*m)
		fmt.Fprintf(&b, "%-28s %-6d %-8.1f %-8.1f\n", tpl, m.Total, m.KW(), m.FQ())
	}
	fmt.Fprintf(&b, "%-28s %-6d %-8.1f %-8.1f\n", "TOTAL", total.Total, total.KW(), total.FQ())
	return b.String(), nil
}
