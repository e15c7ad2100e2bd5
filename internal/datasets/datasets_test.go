package datasets

import (
	"strings"
	"testing"

	"templar/internal/db"
	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

func TestTableIIShape(t *testing.T) {
	// The schema shape and workload sizes must match the paper's Table II.
	want := []TableIIRow{
		{Dataset: "MAS", SizeGB: 3.2, Relations: 17, Attributes: 53, ForeignKeys: 19, Queries: 194},
		{Dataset: "Yelp", SizeGB: 2.0, Relations: 7, Attributes: 38, ForeignKeys: 7, Queries: 127},
		{Dataset: "IMDB", SizeGB: 1.3, Relations: 16, Attributes: 65, ForeignKeys: 20, Queries: 128},
	}
	for i, ds := range All() {
		got := ds.Stats()
		if got != want[i] {
			t.Errorf("%s: stats = %+v, want %+v", ds.Name, got, want[i])
		}
	}
}

func TestDatasetsDeterministic(t *testing.T) {
	a, b := MAS(), MAS()
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatal("nondeterministic task count")
	}
	for i := range a.Tasks {
		if a.Tasks[i].ID != b.Tasks[i].ID || a.Tasks[i].GoldCanonical != b.Tasks[i].GoldCanonical || a.Tasks[i].NLQ != b.Tasks[i].NLQ {
			t.Fatalf("task %d differs across builds", i)
		}
	}
}

func TestGoldSQLParsesAndResolves(t *testing.T) {
	for _, ds := range All() {
		for _, task := range ds.Tasks {
			q, err := sqlparse.Parse(task.Gold)
			if err != nil {
				t.Fatalf("%s: gold SQL: %v", task.ID, err)
			}
			if err := q.Resolve(nil); err != nil {
				t.Fatalf("%s: gold resolve: %v", task.ID, err)
			}
			if q.Canonical() != task.GoldCanonical {
				t.Fatalf("%s: canonical mismatch", task.ID)
			}
			// Every relation in the gold SQL exists in the schema.
			for _, tr := range q.From {
				if _, ok := ds.DB.Schema().Relation(tr.Name); !ok {
					t.Fatalf("%s: gold references unknown relation %q", task.ID, tr.Name)
				}
			}
		}
	}
}

func TestGoldFragmentsAlignWithKeywords(t *testing.T) {
	for _, ds := range All() {
		for _, task := range ds.Tasks {
			if len(task.Keywords) != len(task.GoldFragments) {
				t.Fatalf("%s: %d keywords vs %d fragments", task.ID, len(task.Keywords), len(task.GoldFragments))
			}
			// Gold fragments must be extractable from the gold SQL.
			q := sqlparse.MustParse(task.Gold)
			if err := q.Resolve(nil); err != nil {
				t.Fatal(err)
			}
			frags := fragment.Extract(q, fragment.Full)
			set := make(map[fragment.Fragment]bool, len(frags))
			for _, f := range frags {
				set[f] = true
			}
			for i, gf := range task.GoldFragments {
				if !set[gf] {
					t.Fatalf("%s: gold fragment %v (keyword %q) not in gold SQL fragments %v",
						task.ID, gf, task.Keywords[i].Text, frags)
				}
			}
		}
	}
}

func TestGoldValuesExistInDatabase(t *testing.T) {
	// Every string predicate value in a gold query must exist as a row
	// value, so the full-text search can find it and score it as exact.
	for _, ds := range All() {
		for _, task := range ds.Tasks {
			q := sqlparse.MustParse(task.Gold)
			if err := q.Resolve(nil); err != nil {
				t.Fatal(err)
			}
			for _, c := range q.Where {
				p, ok := c.(sqlparse.Pred)
				if !ok || p.Value.Kind != sqlparse.StringVal {
					continue
				}
				tab := ds.DB.Table(p.Column.Table)
				if tab == nil {
					t.Fatalf("%s: missing table %q", task.ID, p.Column.Table)
				}
				found := false
				for _, v := range tab.DistinctValues(p.Column.Column) {
					if v == p.Value.S {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s: value %q not present in %s.%s", task.ID, p.Value.S, p.Column.Table, p.Column.Column)
				}
			}
		}
	}
}

func TestNumericGoldPredicatesSatisfiable(t *testing.T) {
	// Numeric gold predicates must select at least one row, otherwise the
	// candidate retrieval of Algorithm 2 can never propose them.
	for _, ds := range All() {
		for _, task := range ds.Tasks {
			q := sqlparse.MustParse(task.Gold)
			if err := q.Resolve(nil); err != nil {
				t.Fatal(err)
			}
			for _, c := range q.Where {
				p, ok := c.(sqlparse.Pred)
				if !ok || p.Value.Kind != sqlparse.NumberVal {
					continue
				}
				tab := ds.DB.Table(p.Column.Table)
				ci := tab.ColumnIndex(p.Column.Column)
				selects := false
				for _, row := range tab.Rows() {
					if ok, err := row[ci].Compare(p.Op, db.Num(p.Value.N)); err == nil && ok {
						selects = true
						break
					}
				}
				if !selects {
					t.Fatalf("%s: gold predicate %v selects no rows", task.ID, p)
				}
			}
		}
	}
}

func TestHazardTasksPresent(t *testing.T) {
	for _, ds := range All() {
		hazards := 0
		for _, task := range ds.Tasks {
			if task.Hazard {
				hazards++
			}
		}
		if hazards == 0 {
			t.Errorf("%s: no hazard tasks for the NaLIR noise model", ds.Name)
		}
		if hazards > len(ds.Tasks)/2 {
			t.Errorf("%s: too many hazard tasks (%d/%d)", ds.Name, hazards, len(ds.Tasks))
		}
	}
}

func TestTaskIDsUnique(t *testing.T) {
	for _, ds := range All() {
		seen := make(map[string]bool)
		for _, task := range ds.Tasks {
			if seen[task.ID] {
				t.Fatalf("%s: duplicate task id %s", ds.Name, task.ID)
			}
			seen[task.ID] = true
		}
	}
}

func TestSelfJoinTemplatesUseDistinctValues(t *testing.T) {
	for _, ds := range All() {
		for _, task := range ds.Tasks {
			if !strings.Contains(task.Template, "Two") {
				continue
			}
			if task.Keywords[1].Text == task.Keywords[2].Text {
				t.Fatalf("%s: self-join task reuses one value %q", task.ID, task.Keywords[1].Text)
			}
		}
	}
}

func TestWorkloadTemplateMix(t *testing.T) {
	// Each dataset must exercise aggregation, numeric predicates and
	// multi-keyword (self-join) tasks.
	for _, ds := range All() {
		var hasAgg, hasNum, hasSelf bool
		for _, task := range ds.Tasks {
			for _, kw := range task.Keywords {
				if len(kw.Meta.Aggs) > 0 {
					hasAgg = true
				}
				if kw.Meta.Op != "" {
					hasNum = true
				}
			}
			if len(task.Keywords) >= 3 {
				hasSelf = true
			}
		}
		if !hasAgg || !hasNum {
			t.Errorf("%s: workload missing aggregation (%v) or numeric (%v) tasks", ds.Name, hasAgg, hasNum)
		}
		if ds.Name != "Yelp" && !hasSelf {
			t.Errorf("%s: workload missing self-join tasks", ds.Name)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.intn(1<<30) != b.intn(1<<30) {
			t.Fatal("rng nondeterministic")
		}
	}
	r := newRNG(0)
	if r.intn(0) != 0 || r.intn(-1) != 0 {
		t.Fatal("intn must tolerate non-positive bounds")
	}
	x := r.rangeInt(5, 9)
	if x < 5 || x > 9 {
		t.Fatalf("rangeInt out of bounds: %d", x)
	}
}

func BenchmarkBuildMAS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MAS()
	}
}
