// Package nlidb implements the pipeline NLIDB systems evaluated in the paper
// (§VII-A2) on top of the Templar facade:
//
//   - Pipeline: the SQLizer-style baseline — word-embedding keyword mapping
//     (λ pinned to 1, no QFG) and minimum-length join paths;
//   - Pipeline+: Pipeline augmented with Templar (QFG-driven configuration
//     ranking and log-driven join weights);
//   - NaLIR: a lexicon-driven baseline with a noisy-parser model reproducing
//     the parse failures described in §VII-C;
//   - NaLIR+: NaLIR's parser front-end with Templar's keyword mapping and
//     join inference behind it.
//
// The NLIDB owns final SQL construction (paper §III-E): BuildSQL assembles a
// complete SELECT statement from a keyword-mapping configuration and an
// inferred join path, including aliasing for self-joins. Translate compares
// the built queries by their canonical form, computed on the AST itself
// once sqlparse.Query.Validate has checked that the parser would read the
// query's SQL text back; SQL text is rendered once, for the winner. The
// tests hold that canonical form to the print-parse-resolve round trip on
// every (configuration, path) pair of the paper systems and, by fuzzing,
// on every parseable query and on ASTs built directly.
package nlidb

import (
	"fmt"
	"sort"

	"templar/internal/joinpath"
	"templar/internal/keyword"
	"templar/internal/sqlparse"
)

// RelationBag derives the bag B_D of relations known to be in the SQL query
// from a configuration's mappings. A qualified attribute mapped more than
// once (e.g. author.name = 'John' and author.name = 'Jane') contributes one
// relation instance per occurrence, which triggers self-join forking in
// INFERJOINS (§VI-C); distinct attributes of the same relation share one
// instance.
func RelationBag(cfg keyword.Configuration) []string {
	attrCount := make(map[string]int)    // qualified attr -> occurrences
	relInstances := make(map[string]int) // rel -> required instances
	var order []string
	noteRel := func(rel string, n int) {
		if _, seen := relInstances[rel]; !seen {
			order = append(order, rel)
		}
		if n > relInstances[rel] {
			relInstances[rel] = n
		}
	}
	for _, m := range cfg.Mappings {
		switch m.Kind {
		case keyword.KindRelation:
			noteRel(m.Rel, 1)
		default:
			attrCount[m.Qualified()]++
			noteRel(m.Rel, attrCount[m.Qualified()])
		}
	}
	var bag []string
	for _, rel := range order {
		for i := 0; i < relInstances[rel]; i++ {
			bag = append(bag, rel)
		}
	}
	return bag
}

// BuildSQL assembles the final SQL query from a configuration and a join
// path covering RelationBag(cfg). It assigns one alias per relation
// instance, emits join conditions from the path's FK edges, and maps each
// configuration mapping onto the correct instance (the i-th occurrence of a
// duplicated attribute goes to the i-th instance of its relation).
func BuildSQL(cfg keyword.Configuration, path joinpath.Path) (*sqlparse.Query, error) {
	// Alias per instance, deterministic: sorted instance names get t1..tn.
	instances := append([]string(nil), path.Relations...)
	sort.Strings(instances)
	alias := make(map[string]string, len(instances))
	var from []sqlparse.TableRef
	for i, inst := range instances {
		a := fmt.Sprintf("t%d", i+1)
		alias[inst] = a
		from = append(from, sqlparse.TableRef{Name: joinpath.BaseRelation(inst), Alias: a})
	}

	// Instances of each base relation in sorted order, for assignment.
	relInsts := make(map[string][]string)
	for _, inst := range instances {
		base := joinpath.BaseRelation(inst)
		relInsts[base] = append(relInsts[base], inst)
	}

	q := &sqlparse.Query{Limit: -1}
	q.From = from

	// Assign attribute-bearing mappings to instances.
	attrSeen := make(map[string]int)
	instFor := func(m keyword.Mapping) (string, error) {
		insts := relInsts[m.Rel]
		if len(insts) == 0 {
			return "", fmt.Errorf("nlidb: join path %v does not cover relation %q", path.Relations, m.Rel)
		}
		i := attrSeen[m.Qualified()]
		attrSeen[m.Qualified()]++
		if i >= len(insts) {
			i = len(insts) - 1
		}
		return insts[i], nil
	}

	hasAgg := false
	var groupCols []sqlparse.ColumnRef
	for _, m := range cfg.Mappings {
		switch m.Kind {
		case keyword.KindRelation:
			// Already covered by the FROM clause via the join path.
		case keyword.KindAttr:
			inst, err := instFor(m)
			if err != nil {
				return nil, err
			}
			col := sqlparse.ColumnRef{Table: alias[inst], Column: m.Attr}
			q.Select = append(q.Select, sqlparse.SelectItem{Agg: m.Agg, Column: col})
			if m.Agg != "" {
				hasAgg = true
			}
			if m.GroupBy {
				groupCols = append(groupCols, col)
			}
		case keyword.KindPred:
			inst, err := instFor(m)
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, sqlparse.Pred{
				Column: sqlparse.ColumnRef{Table: alias[inst], Column: m.Attr},
				Op:     m.Op,
				Value:  m.Value,
			})
		}
	}
	if len(q.Select) == 0 {
		q.Select = append(q.Select, sqlparse.SelectItem{Star: true})
	}

	// Join conditions from the path edges.
	for _, e := range path.Edges {
		q.Where = append(q.Where, sqlparse.JoinCond{
			Left:  sqlparse.ColumnRef{Table: alias[e.FromInst], Column: e.FK.FromAttr},
			Right: sqlparse.ColumnRef{Table: alias[e.ToInst], Column: e.FK.ToAttr},
		})
	}

	// Standard SQL: when any aggregate is projected alongside plain
	// columns, the plain columns must be grouped.
	if hasAgg {
		for _, s := range q.Select {
			if s.Agg == "" && !s.Star {
				groupCols = append(groupCols, s.Column)
			}
		}
	}
	seen := make(map[string]bool)
	for _, c := range groupCols {
		if !seen[c.String()] {
			seen[c.String()] = true
			q.GroupBy = append(q.GroupBy, c)
		}
	}
	return q, nil
}

// canonicalSQL renders the comparison form of a query BuildSQL assembled:
// aliases resolved to relation names, FROM and WHERE sorted (see
// sqlparse.Query.Canonical). It rejects a query whose SQL text the parser
// would not read back (sqlparse.Query.Validate) — an aggregate, operator
// or number that came from a caller's keyword metadata unchecked — so no
// such text is served. Otherwise it works on the AST directly — resolving
// a shallow copy, so q keeps its aliases for rendering — which gives the
// same string as printing q, parsing the text back and canonicalizing
// that (TestCanonicalSQLMatchesRoundTrip and the FuzzCanonicalSQL targets
// hold it to the round trip).
func canonicalSQL(q *sqlparse.Query) (string, error) {
	if err := q.Validate(); err != nil {
		return "", err
	}
	cp := *q
	cp.Select = append([]sqlparse.SelectItem(nil), q.Select...)
	cp.Where = append([]sqlparse.Condition(nil), q.Where...)
	cp.GroupBy = append([]sqlparse.ColumnRef(nil), q.GroupBy...)
	cp.OrderBy = append([]sqlparse.OrderItem(nil), q.OrderBy...)
	if err := cp.Resolve(nil); err != nil {
		return "", err
	}
	return cp.Canonical(), nil
}
