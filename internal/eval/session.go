package eval

import (
	"fmt"
	"strings"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
)

// SessionExperiment evaluates the paper's future-work idea (§VIII):
// exploiting user sessions in the SQL query log. Training queries are
// grouped into pseudo-sessions — consecutive queries of the same template,
// modeling a user iterating on one information need — and folded into the
// QFG with cross-query decayed co-occurrence (qfg.AddSession). The decay=0
// row is the session-free Definition 6 baseline.
func SessionExperiment(all []*datasets.Dataset, decays []float64, opts Options) (string, error) {
	opts = opts.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "Session experiment: Pipeline+ accuracy with session-aware QFG\n")
	fmt.Fprintf(&b, "%-8s %-8s %-8s %-8s\n", "Dataset", "Decay", "KW (%)", "FQ (%)")
	for _, ds := range all {
		for _, decay := range decays {
			m, err := evaluateWithSessions(ds, decay, opts)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%-8s %-8.2f %-8.1f %-8.1f\n", ds.Name, decay, m.KW(), m.FQ())
		}
	}
	return b.String(), nil
}

func evaluateWithSessions(ds *datasets.Dataset, decay float64, opts Options) (Metrics, error) {
	folds := splitFolds(len(ds.Tasks), opts.Folds, opts.Seed)
	model := embedding.New()
	var total Metrics
	for trial := 0; trial < opts.Folds; trial++ {
		graph, err := trainSessionQFG(ds, folds, trial, opts.Obscurity, decay)
		if err != nil {
			return Metrics{}, err
		}
		sys, err := NewSystem(ds, PipelinePlus, model, graph, opts)
		if err != nil {
			return Metrics{}, err
		}
		for _, ti := range folds[trial] {
			total.Add(scoreTask(sys, ds.Tasks[ti]))
		}
	}
	return total, nil
}

// trainSessionQFG groups the training tasks by template, splits each group
// into sessions of up to four queries, and folds them in with one Replay.
// decay <= 0 degenerates to plain per-query folding.
func trainSessionQFG(ds *datasets.Dataset, folds [][]int, holdout int, ob fragment.Obscurity, decay float64) (*qfg.Snapshot, error) {
	byTemplate := make(map[string][]*sqlparse.Query)
	var order []string
	for f, idxs := range folds {
		if f == holdout {
			continue
		}
		for _, ti := range idxs {
			task := ds.Tasks[ti]
			q, err := sqlparse.Parse(task.Gold)
			if err != nil {
				return nil, fmt.Errorf("eval: %s: %w", task.ID, err)
			}
			if err := q.Resolve(nil); err != nil {
				return nil, fmt.Errorf("eval: %s: %w", task.ID, err)
			}
			if _, seen := byTemplate[task.Template]; !seen {
				order = append(order, task.Template)
			}
			byTemplate[task.Template] = append(byTemplate[task.Template], q)
		}
	}
	var ops []qfg.ReplayOp
	const sessionLen = 4
	for _, tpl := range order {
		queries := byTemplate[tpl]
		for start := 0; start < len(queries); start += sessionLen {
			end := min(start+sessionLen, len(queries))
			// decay <= 0 folds each query on its own: a plain batch.
			ops = append(ops, qfg.ReplayOp{Session: decay > 0, Queries: queries[start:end], Count: 1, Decay: decay})
		}
	}
	empty, err := qfg.Build(nil, ob)
	if err != nil {
		return nil, err
	}
	live := qfg.NewLive(empty)
	if err := live.Replay(ops); err != nil {
		return nil, err
	}
	return live.CurrentSnapshot(), nil
}
