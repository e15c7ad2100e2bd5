package sqlparse

import (
	"fmt"
	"math"
)

// Validate reports why Parse would not read q.String() back, or nil when
// it would. It accepts exactly the spellings Parse produces: aggregates in
// upper case, the comparison operators =, <, >, <=, >=, !=, LIKE and ?op,
// finite numbers, identifiers the lexer reads as one word and that are no
// clause keyword (the column part of a qualified reference may be one),
// and join conditions with a qualified right-hand side. For a query that
// passes, resolving and canonicalizing q itself gives the same result as
// resolving and canonicalizing the parse of q.String(), so callers can
// compare queries they built without printing and reparsing them.
func (q *Query) Validate() error {
	if len(q.Select) == 0 {
		return fmt.Errorf("sqlparse: empty SELECT list")
	}
	for _, s := range q.Select {
		if err := s.validate(); err != nil {
			return err
		}
	}
	if len(q.From) == 0 {
		return fmt.Errorf("sqlparse: empty FROM list")
	}
	for _, t := range q.From {
		if err := checkName(t.Name); err != nil {
			return err
		}
		if t.Alias != "" && t.Alias != t.Name {
			if err := checkName(t.Alias); err != nil {
				return err
			}
		}
	}
	for _, c := range q.Where {
		if err := validateCondition(c); err != nil {
			return err
		}
	}
	for _, c := range q.GroupBy {
		if err := c.validate(); err != nil {
			return err
		}
	}
	for _, o := range q.OrderBy {
		if err := o.Expr.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (s SelectItem) validate() error {
	if s.Agg != "" && !isAggregate(s.Agg) {
		return fmt.Errorf("sqlparse: unknown aggregate %q", s.Agg)
	}
	if s.Star {
		return nil
	}
	return s.Column.validate()
}

func (c ColumnRef) validate() error {
	if c.Table == "" {
		return checkName(c.Column)
	}
	if err := checkName(c.Table); err != nil {
		return err
	}
	if !isIdent(c.Column) {
		return fmt.Errorf("sqlparse: malformed identifier %q", c.Column)
	}
	return nil
}

func validateCondition(c Condition) error {
	switch v := c.(type) {
	case JoinCond:
		if err := v.Left.validate(); err != nil {
			return err
		}
		if v.Right.Table == "" {
			return fmt.Errorf("sqlparse: unqualified column %q on right-hand side of join condition", v.Right.Column)
		}
		return v.Right.validate()
	case Pred:
		if err := v.Column.validate(); err != nil {
			return err
		}
		if !isOperator(v.Op) {
			return fmt.Errorf("sqlparse: unknown comparison operator %q", v.Op)
		}
		return v.Value.validate()
	case InPred:
		if err := v.Column.validate(); err != nil {
			return err
		}
		if len(v.Values) == 0 {
			return fmt.Errorf("sqlparse: empty IN list")
		}
		for _, val := range v.Values {
			if err := val.validate(); err != nil {
				return err
			}
		}
		return nil
	case BetweenPred:
		if err := v.Column.validate(); err != nil {
			return err
		}
		if err := v.Lo.validate(); err != nil {
			return err
		}
		return v.Hi.validate()
	default:
		return fmt.Errorf("sqlparse: unknown condition %T", c)
	}
}

func (v Value) validate() error {
	if v.Kind == NumberVal && (math.IsInf(v.N, 0) || math.IsNaN(v.N)) {
		return fmt.Errorf("sqlparse: non-finite number %v", v.N)
	}
	return nil
}

// checkName accepts identifiers that may start a column reference or name
// a table or alias: one lexer word that is no clause keyword.
func checkName(s string) error {
	if !isIdent(s) {
		return fmt.Errorf("sqlparse: malformed identifier %q", s)
	}
	if isReserved(s) {
		return fmt.Errorf("sqlparse: keyword %q used as an identifier", s)
	}
	return nil
}

// isIdent reports whether the lexer reads s as exactly one identifier.
func isIdent(s string) bool {
	if s == "" || !isLetter(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isLetter(s[i]) && !isDigit(s[i]) {
			return false
		}
	}
	return true
}

// isAggregate reports whether agg is an aggregate name as Parse spells it.
func isAggregate(agg string) bool {
	for _, a := range aggregates {
		if a == agg {
			return true
		}
	}
	return false
}

// isOperator reports whether op is a comparison operator as Parse spells
// it ("<>" reads back as "!=", "like" as "LIKE").
func isOperator(op string) bool {
	switch op {
	case "=", "<", ">", "<=", ">=", "!=", "LIKE", "?op":
		return true
	}
	return false
}
