package keyword

import (
	"fmt"
	"strings"

	"templar/internal/fragment"
)

// ParseSpec parses a compact textual keyword specification into keywords
// with metadata. The format is semicolon-separated clauses of the form
//
//	text:context[:extra]
//
// where context is select, where or from (case-insensitive) and the
// optional extra is either a comparison operator (>, >=, <, <=, =, !=) for
// WHERE-context numeric keywords or an aggregate function name (COUNT,
// SUM, AVG, MIN, MAX, in any case) for SELECT-context keywords. A trailing
// "+g" on an aggregate marks the group-by flag. Examples:
//
//	"papers:select;Databases:where"
//	"papers:select:COUNT;after 2000:where:>"
//
// It is used by the templar-translate command and is convenient for tests
// and REPL-style experimentation.
func ParseSpec(spec string) ([]Keyword, error) {
	clauses := strings.Split(spec, ";")
	out := make([]Keyword, 0, len(clauses))
	for _, clause := range clauses {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("keyword: malformed clause %q (want text:context[:extra])", clause)
		}
		kw := Keyword{Text: strings.TrimSpace(parts[0])}
		if kw.Text == "" {
			return nil, fmt.Errorf("keyword: empty keyword text in %q", clause)
		}
		switch strings.ToLower(strings.TrimSpace(parts[1])) {
		case "select":
			kw.Meta.Context = fragment.Select
		case "where":
			kw.Meta.Context = fragment.Where
		case "from":
			kw.Meta.Context = fragment.From
		default:
			return nil, fmt.Errorf("keyword: unknown context %q in %q", parts[1], clause)
		}
		if len(parts) == 3 {
			extra := strings.TrimSpace(parts[2])
			group := false
			if strings.HasSuffix(extra, "+g") {
				group = true
				extra = strings.TrimSuffix(extra, "+g")
			}
			switch {
			case isOperator(extra):
				if group {
					return nil, fmt.Errorf("keyword: group flag on operator in %q", clause)
				}
				kw.Meta.Op = extra
			case isAggregate(strings.ToUpper(extra)):
				kw.Meta.Aggs = []string{strings.ToUpper(extra)}
				kw.Meta.GroupBy = group
			case extra == "":
				return nil, fmt.Errorf("keyword: empty extra in %q", clause)
			default:
				return nil, fmt.Errorf("keyword: unknown operator or aggregate %q in %q", extra, clause)
			}
		}
		out = append(out, kw)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("keyword: empty specification")
	}
	return out, nil
}

// Validate reports keyword metadata that ParseSpec could not have
// produced: an operator other than >, >=, <, <=, =, != (or none), or an
// aggregate other than COUNT, SUM, AVG, MIN, MAX in upper case. The
// mapper copies both into the SQL it helps build, so callers that take
// keywords from outside the program check them here first.
func (kw Keyword) Validate() error {
	if kw.Meta.Op != "" && !isOperator(kw.Meta.Op) {
		return fmt.Errorf("keyword: unknown operator %q for %q (want >, >=, <, <=, = or !=)", kw.Meta.Op, kw.Text)
	}
	for _, agg := range kw.Meta.Aggs {
		if !isAggregate(agg) {
			return fmt.Errorf("keyword: unknown aggregate %q for %q (want COUNT, SUM, AVG, MIN or MAX)", agg, kw.Text)
		}
	}
	return nil
}

func isOperator(op string) bool {
	switch op {
	case ">", ">=", "<", "<=", "=", "!=":
		return true
	}
	return false
}

func isAggregate(agg string) bool {
	switch agg {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}
