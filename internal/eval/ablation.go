package eval

import (
	"fmt"
	"strings"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/joinpath"
	"templar/internal/keyword"
	"templar/internal/nlidb"
	"templar/internal/qfg"
)

// Variant is one Pipeline+ design variation for the ablation study of the
// scoring and weighting choices the paper commits to (geometric mean,
// FROM-fragment exclusion, Dice-normalized join weights).
type Variant struct {
	// Name labels the variant in reports.
	Name string
	// Keyword adjusts the mapper options (nil keeps the defaults).
	Keyword func(keyword.Options) keyword.Options
	// JoinWeights builds the join weight function from the trial's QFG
	// (nil keeps the paper's LogWeights).
	JoinWeights func(g *qfg.Snapshot) joinpath.WeightFunc
}

// DesignVariants returns the paper's configuration plus one variant per
// contested design choice.
func DesignVariants() []Variant {
	return []Variant{
		{Name: "paper"},
		{
			Name: "arithmetic-mean",
			Keyword: func(o keyword.Options) keyword.Options {
				o.UseArithmeticMean = true
				return o
			},
		},
		{
			Name: "include-FROM",
			Keyword: func(o keyword.Options) keyword.Options {
				o.IncludeFromInQFG = true
				return o
			},
		},
		{
			Name: "raw-count-weights",
			JoinWeights: func(g *qfg.Snapshot) joinpath.WeightFunc {
				return joinpath.CountWeights(g)
			},
		},
	}
}

// EvaluateVariant runs the cross-validated evaluation of one Pipeline+
// design variant.
func EvaluateVariant(ds *datasets.Dataset, v Variant, opts Options) (Metrics, error) {
	opts = opts.withDefaults()
	folds := splitFolds(len(ds.Tasks), opts.Folds, opts.Seed)
	model := embedding.New()
	var total Metrics
	for trial := 0; trial < opts.Folds; trial++ {
		graph, err := trainQFG(ds, folds, trial, opts.Obscurity)
		if err != nil {
			return Metrics{}, err
		}
		kwOpts := keyword.Options{K: opts.K, Lambda: opts.Lambda, Obscurity: opts.Obscurity}
		if v.Keyword != nil {
			kwOpts = v.Keyword(kwOpts)
		}
		cfg := nlidb.Config{Keyword: kwOpts, QFG: graph, LogJoin: !opts.DisableLogJoin}
		if v.JoinWeights != nil {
			cfg.JoinWeights = v.JoinWeights(graph)
		}
		sys := nlidb.NewSystem("Pipeline+/"+v.Name, ds.DB, model, cfg)
		for _, ti := range folds[trial] {
			total.Add(scoreTask(sys, ds.Tasks[ti]))
		}
	}
	return total, nil
}

// DesignAblation renders the FQ accuracy of every design variant on every
// dataset.
func DesignAblation(all []*datasets.Dataset, opts Options) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Design ablation: Pipeline+ FQ (%%) per scoring/weighting variant\n")
	fmt.Fprintf(&b, "%-8s %-20s %-8s %-8s\n", "Dataset", "Variant", "KW (%)", "FQ (%)")
	for _, ds := range all {
		for _, v := range DesignVariants() {
			m, err := EvaluateVariant(ds, v, opts)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%-8s %-20s %-8.1f %-8.1f\n", ds.Name, v.Name, m.KW(), m.FQ())
		}
	}
	return b.String(), nil
}
