// Package db implements the in-memory relational database that replaces the
// MySQL 5.7 instance of the paper's evaluation: typed table storage per
// schema relation and a small executor for single-block SELECT queries, so
// examples and the evaluation can run queries against real rows.
//
// The database stores rows and nothing else. Algorithm 2's probes —
// boolean-mode full-text search over Porter-stemmed tokens (MATCH(attr)
// AGAINST('+tok1* +tok2*' IN BOOLEAN MODE), §V-A) and the numeric
// exec(c) ≠ ∅ test of SCOREANDPRUNE (§V-B) — are answered by the keyword
// mapper's candidate index (internal/keyword), which is built once from
// these rows; the plain reference the index is tested against lives in
// that package's tests.
package db

import (
	"fmt"
	"strconv"
)

// Value is a typed cell value: either a string or a number.
type Value struct {
	IsNum bool
	S     string
	N     float64
}

// Str builds a string value.
func Str(s string) Value { return Value{S: s} }

// Num builds a numeric value.
func Num(n float64) Value { return Value{IsNum: true, N: n} }

// String renders the value for display.
func (v Value) String() string {
	if v.IsNum {
		return strconv.FormatFloat(v.N, 'f', -1, 64)
	}
	return v.S
}

// Equal reports deep equality.
func (v Value) Equal(o Value) bool {
	if v.IsNum != o.IsNum {
		return false
	}
	if v.IsNum {
		return v.N == o.N
	}
	return v.S == o.S
}

// Compare applies a SQL comparison operator between v and o. String
// comparisons use lexicographic order; LIKE treats o.S as a plain substring
// when it carries no SQL wildcards, otherwise % wildcards at either end are
// honored. Comparing values of different types returns false.
func (v Value) Compare(op string, o Value) (bool, error) {
	if op == "LIKE" {
		if v.IsNum || o.IsNum {
			return false, nil
		}
		return likeMatch(v.S, o.S), nil
	}
	if v.IsNum != o.IsNum {
		return false, nil
	}
	var c int
	if v.IsNum {
		switch {
		case v.N < o.N:
			c = -1
		case v.N > o.N:
			c = 1
		}
	} else {
		switch {
		case v.S < o.S:
			c = -1
		case v.S > o.S:
			c = 1
		}
	}
	switch op {
	case "=":
		return c == 0, nil
	case "!=":
		return c != 0, nil
	case "<":
		return c < 0, nil
	case "<=":
		return c <= 0, nil
	case ">":
		return c > 0, nil
	case ">=":
		return c >= 0, nil
	default:
		return false, fmt.Errorf("db: unknown operator %q", op)
	}
}

// likeMatch implements the limited LIKE subset used by the benchmarks:
// optional leading/trailing % wildcards around a literal needle.
func likeMatch(s, pattern string) bool {
	leading := len(pattern) > 0 && pattern[0] == '%'
	trailing := len(pattern) > 0 && pattern[len(pattern)-1] == '%'
	needle := pattern
	if leading {
		needle = needle[1:]
	}
	if trailing && len(needle) > 0 && needle[len(needle)-1] == '%' {
		needle = needle[:len(needle)-1]
	}
	switch {
	case leading && trailing:
		return contains(s, needle)
	case leading:
		return len(s) >= len(needle) && s[len(s)-len(needle):] == needle
	case trailing:
		return len(s) >= len(needle) && s[:len(needle)] == needle
	default:
		return s == pattern
	}
}

func contains(s, sub string) bool {
	if sub == "" {
		return true
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
