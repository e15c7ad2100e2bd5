package sqlparse

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ColumnRef names a column, optionally qualified by a table alias or name.
// After Resolve, Table always holds the real relation name.
type ColumnRef struct {
	Table  string
	Column string
}

// String renders "table.column" or just "column".
func (c ColumnRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// TableRef is one entry of the FROM list.
type TableRef struct {
	Name  string
	Alias string
}

// String renders "name alias" or "name".
func (t TableRef) String() string {
	if t.Alias == "" || t.Alias == t.Name {
		return t.Name
	}
	return t.Name + " " + t.Alias
}

// SelectItem is one projection: either *, a plain column, or an aggregate
// over a column (possibly nested, e.g. MAX(COUNT(x)) does not occur in our
// subset; a single aggregate level suffices).
type SelectItem struct {
	Star     bool
	Agg      string // "", COUNT, SUM, AVG, MIN, MAX
	Distinct bool   // COUNT(DISTINCT col) or SELECT DISTINCT col
	Column   ColumnRef
}

// String renders the projection expression.
func (s SelectItem) String() string {
	inner := s.Column.String()
	if s.Star {
		inner = "*"
	}
	if s.Distinct && s.Agg != "" {
		inner = "DISTINCT " + inner
	}
	if s.Agg != "" {
		return s.Agg + "(" + inner + ")"
	}
	return inner
}

// ValueKind tags literal values in predicates.
type ValueKind int

const (
	// StringVal is a quoted string literal.
	StringVal ValueKind = iota
	// NumberVal is a numeric literal.
	NumberVal
	// Placeholder is the obscured ?val token.
	Placeholder
)

// Value is a literal in a comparison predicate.
type Value struct {
	Kind ValueKind
	S    string  // for StringVal and the raw placeholder text
	N    float64 // for NumberVal
}

// String renders the literal in SQL syntax.
func (v Value) String() string {
	switch v.Kind {
	case StringVal:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case NumberVal:
		return strconv.FormatFloat(v.N, 'f', -1, 64)
	default:
		return "?val"
	}
}

// Condition is a conjunct of the WHERE clause: either a JoinCond or a Pred.
type Condition interface {
	fmt.Stringer
	isCondition()
}

// JoinCond equates two column references (an FK-PK join condition).
type JoinCond struct {
	Left  ColumnRef
	Right ColumnRef
}

func (JoinCond) isCondition() {}

// String renders "a.x = b.y".
func (j JoinCond) String() string { return j.Left.String() + " = " + j.Right.String() }

// Pred compares a column against a literal value. Op may be the obscured
// placeholder "?op".
type Pred struct {
	Column ColumnRef
	Op     string
	Value  Value
}

func (Pred) isCondition() {}

// String renders "col op value".
func (p Pred) String() string { return p.Column.String() + " " + p.Op + " " + p.Value.String() }

// InPred is a set-membership predicate: col IN (v1, v2, …).
type InPred struct {
	Column ColumnRef
	Values []Value
}

func (InPred) isCondition() {}

// String renders "col IN (v1, v2)".
func (p InPred) String() string {
	var b strings.Builder
	b.WriteString(p.Column.String())
	b.WriteString(" IN (")
	for i, v := range p.Values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteString(")")
	return b.String()
}

// BetweenPred is a range predicate: col BETWEEN lo AND hi.
type BetweenPred struct {
	Column ColumnRef
	Lo, Hi Value
}

func (BetweenPred) isCondition() {}

// String renders "col BETWEEN lo AND hi".
func (p BetweenPred) String() string {
	return p.Column.String() + " BETWEEN " + p.Lo.String() + " AND " + p.Hi.String()
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr SelectItem
	Desc bool
}

// String renders "expr" or "expr DESC".
func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String()
}

// Query is a parsed single-block SELECT statement.
type Query struct {
	Distinct bool
	Select   []SelectItem
	From     []TableRef
	Where    []Condition
	GroupBy  []ColumnRef
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// String renders the query as SQL.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, s := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteString(" FROM ")
	for i, t := range q.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	if len(q.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, c := range q.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(c.String())
		}
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// aliasMap returns alias -> relation name for the FROM list. Unaliased tables
// map their own name to themselves. A table aliased to its own name counts
// as unaliased, as String renders it, so a query resolves the same before
// and after a print-and-parse round trip.
func (q *Query) aliasMap() map[string]string {
	m := make(map[string]string, len(q.From))
	for _, t := range q.From {
		if t.Alias != "" && t.Alias != t.Name {
			m[t.Alias] = t.Name
		}
		if _, exists := m[t.Name]; !exists {
			m[t.Name] = t.Name
		}
	}
	return m
}

// Resolve rewrites every column reference so Table holds the underlying
// relation name instead of an alias. Unqualified columns are resolved when a
// resolver function is supplied (it maps a bare column name to the owning
// relation among q.From); pass nil to leave them unqualified. It returns an
// error for references to unknown aliases.
func (q *Query) Resolve(owner func(column string, from []TableRef) (string, bool)) error {
	aliases := q.aliasMap()
	fix := func(c *ColumnRef) error {
		if c.Table == "" {
			if owner == nil {
				return nil
			}
			rel, ok := owner(c.Column, q.From)
			if !ok {
				return fmt.Errorf("sqlparse: cannot resolve column %q", c.Column)
			}
			c.Table = rel
			return nil
		}
		rel, ok := aliases[c.Table]
		if !ok {
			return fmt.Errorf("sqlparse: unknown table alias %q", c.Table)
		}
		c.Table = rel
		return nil
	}
	for i := range q.Select {
		if q.Select[i].Star {
			continue
		}
		if err := fix(&q.Select[i].Column); err != nil {
			return err
		}
	}
	for i, c := range q.Where {
		switch v := c.(type) {
		case JoinCond:
			if err := fix(&v.Left); err != nil {
				return err
			}
			if err := fix(&v.Right); err != nil {
				return err
			}
			q.Where[i] = v
		case Pred:
			if err := fix(&v.Column); err != nil {
				return err
			}
			q.Where[i] = v
		case InPred:
			if err := fix(&v.Column); err != nil {
				return err
			}
			q.Where[i] = v
		case BetweenPred:
			if err := fix(&v.Column); err != nil {
				return err
			}
			q.Where[i] = v
		}
	}
	for i := range q.GroupBy {
		if err := fix(&q.GroupBy[i]); err != nil {
			return err
		}
	}
	for i := range q.OrderBy {
		if q.OrderBy[i].Expr.Star {
			continue
		}
		if err := fix(&q.OrderBy[i].Expr.Column); err != nil {
			return err
		}
	}
	return nil
}

// Relations returns the multiset of relation names in the FROM list, sorted.
// Duplicates indicate self-joins.
func (q *Query) Relations() []string {
	out := make([]string, 0, len(q.From))
	for _, t := range q.From {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// Canonical renders a normalized form used for gold-vs-produced SQL
// comparison: aliases erased (callers should Resolve first), FROM sorted,
// WHERE conjuncts sorted lexicographically, SELECT order preserved.
// Two queries with equal Canonical strings are considered the same answer.
func (q *Query) Canonical() string {
	cp := *q
	cp.From = append([]TableRef(nil), q.From...)
	for i := range cp.From {
		cp.From[i].Alias = ""
	}
	sort.Slice(cp.From, func(i, j int) bool { return cp.From[i].Name < cp.From[j].Name })
	cp.Where = append([]Condition(nil), q.Where...)
	strs := make([]string, len(cp.Where))
	for i, c := range cp.Where {
		// Normalize join condition orientation: smaller side first.
		if j, ok := c.(JoinCond); ok {
			if j.Right.String() < j.Left.String() {
				j.Left, j.Right = j.Right, j.Left
				cp.Where[i] = j
			}
		}
		strs[i] = cp.Where[i].String()
	}
	sort.Sort(byStringWith{cp.Where, strs})
	return cp.String()
}

// byStringWith sorts conditions and their rendered strings together.
type byStringWith struct {
	conds []Condition
	strs  []string
}

func (b byStringWith) Len() int { return len(b.conds) }
func (b byStringWith) Less(i, j int) bool {
	return b.strs[i] < b.strs[j]
}
func (b byStringWith) Swap(i, j int) {
	b.conds[i], b.conds[j] = b.conds[j], b.conds[i]
	b.strs[i], b.strs[j] = b.strs[j], b.strs[i]
}
