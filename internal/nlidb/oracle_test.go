package nlidb

import (
	"math"
	"testing"

	"templar/internal/sqlparse"
	"templar/internal/xrand"
)

// roundTripCanonicalSQL is the canonicalization canonicalSQL replaced,
// kept as its oracle: print the query, parse the text back, resolve the
// aliases and canonicalize. Besides the canonical string it checks that
// the rendered SQL is parseable at all.
func roundTripCanonicalSQL(q *sqlparse.Query) (string, error) {
	cp, err := sqlparse.Parse(q.String())
	if err != nil {
		return "", err
	}
	if err := cp.Resolve(nil); err != nil {
		return "", err
	}
	return cp.Canonical(), nil
}

// FuzzCanonicalSQL holds canonicalSQL to the round-trip oracle on every
// query the parser accepts: Validate passes, the same canonical string,
// an error exactly when the oracle errs, and the input query left
// untouched (Translate renders it after canonicalizing). Seeds are
// FuzzParse's corpus.
func FuzzCanonicalSQL(f *testing.F) {
	seeds := []string{
		"SELECT j.name FROM journal j",
		"SELECT p.title FROM journal j, publication p WHERE j.name = 'TMC' AND p.pid = j.pid",
		"SELECT COUNT(p.pid) FROM publication p GROUP BY p.year ORDER BY COUNT(p.pid) DESC",
		"SELECT a.name FROM author a WHERE a.age BETWEEN 20 AND 30",
		"SELECT b.name FROM business b WHERE b.city IN ('SF', 'LA')",
		"SELECT * FROM t",
		"SELECT t.a FROM t WHERE t.b = -1.5e3",
		"select t.a from t where t.b = 'unterminated",
		"SELECT FROM WHERE",
		"SELECT t.a FROM t WHERE t.b = 'it''s'",
		"SELECT t.a FROM t WHERE ((t.b = 1)",
		"\x00\xff SELECT",
		"25x: SELECT j.name FROM journal j",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sqlparse.Parse(src)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("%q: Validate rejects a parsed query: %v", src, err)
		}
		before := q.String()
		got, gotErr := canonicalSQL(q)
		if after := q.String(); after != before {
			t.Fatalf("canonicalSQL modified its input: %q -> %q", before, after)
		}
		want, wantErr := roundTripCanonicalSQL(q)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: canonicalSQL error %v, round trip error %v", src, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("%q:\ncanonicalSQL %q\nround trip   %q", src, got, want)
		}
	})
}

// FuzzCanonicalSQLAST holds canonicalSQL to the round trip on query ASTs
// built directly, as BuildSQL builds them, rather than parsed: such an AST
// can hold what no parse produces — a free-form or lower-case aggregate or
// operator, a non-finite number, a malformed identifier or clause keyword,
// a table aliased to its own name. Whenever Validate passes, the printed
// SQL must parse and canonicalSQL must equal the round trip; whenever it
// fails, canonicalSQL must refuse the query. The input is never modified.
func FuzzCanonicalSQLAST(f *testing.F) {
	rng := xrand.New(25)
	for i := 0; i < 256; i++ {
		seed := make([]byte, 96)
		for j := range seed {
			seed[j] = byte(rng.Next())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q := (&astDecoder{b: data}).query()
		before := q.String()
		got, gotErr := canonicalSQL(q)
		if after := q.String(); after != before {
			t.Fatalf("canonicalSQL modified its input: %q -> %q", before, after)
		}
		if err := q.Validate(); err != nil {
			if gotErr == nil {
				t.Fatalf("%q: canonicalSQL accepted a query Validate rejects (%v)", before, err)
			}
			return
		}
		if _, err := sqlparse.Parse(before); err != nil {
			t.Fatalf("%q: Validate passed but the SQL does not parse: %v", before, err)
		}
		want, wantErr := roundTripCanonicalSQL(q)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: canonicalSQL error %v, round trip error %v", before, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("%q:\ncanonicalSQL %q\nround trip   %q", before, got, want)
		}
	})
}

// astDecoder draws a query AST from fuzz bytes. Each field comes from a
// small vocabulary of what the parser produces or, one time in sixteen, of
// what it rejects, so that most queries pass Validate but every kind of
// bad field still occurs.
type astDecoder struct {
	b      []byte
	tables []string // what the FROM list binds, so columns mostly resolve
}

var (
	fuzzIdents    = []string{"t1", "t2", "a", "b", "author", "name", "x_1", "count"}
	fuzzBadIdents = []string{"select", "AND", "in", "", "1a", "a b", "\u00e9"}
	fuzzAggs      = []string{"", "COUNT", "SUM", "AVG", "MIN", "MAX"}
	fuzzBadAggs   = []string{"count", "Max", "x) FROM t; --", "DISTINCT"}
	fuzzOps       = []string{"=", "<", ">", "<=", ">=", "!=", "LIKE", "?op"}
	fuzzBadOps    = []string{"<>", "like", "==", "> 0 OR 1 =", ""}
	fuzzNums      = []float64{0, math.Copysign(0, -1), 1.5, -2, 2000, 1e300, 5e-324}
	fuzzBadNums   = []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	fuzzStrs      = []string{"", "x", "it's", "a''b", "\x00\xff"}
)

// pick returns the next input byte modulo n, or 0 once input runs out.
func (d *astDecoder) pick(n int) int {
	if len(d.b) == 0 {
		return 0
	}
	v := int(d.b[0]) % n
	d.b = d.b[1:]
	return v
}

// word picks from good, or from bad one time in sixteen.
func (d *astDecoder) word(good, bad []string) string {
	if d.pick(16) == 15 {
		return bad[d.pick(len(bad))]
	}
	return good[d.pick(len(good))]
}

// count returns a list length in 1..max, or 0 one time in sixteen.
func (d *astDecoder) count(max int) int {
	if d.pick(16) == 15 {
		return 0
	}
	return 1 + d.pick(max)
}

func (d *astDecoder) ident() string { return d.word(fuzzIdents, fuzzBadIdents) }

func (d *astDecoder) column() sqlparse.ColumnRef {
	c := sqlparse.ColumnRef{Column: d.ident()}
	switch {
	case d.pick(4) == 0:
	case len(d.tables) > 0 && d.pick(8) != 0:
		c.Table = d.tables[d.pick(len(d.tables))]
	default:
		c.Table = d.ident()
	}
	return c
}

func (d *astDecoder) value() sqlparse.Value {
	switch d.pick(3) {
	case 0:
		return sqlparse.Value{Kind: sqlparse.StringVal, S: fuzzStrs[d.pick(len(fuzzStrs))]}
	case 1:
		if d.pick(16) == 15 {
			return sqlparse.Value{Kind: sqlparse.NumberVal, N: fuzzBadNums[d.pick(len(fuzzBadNums))]}
		}
		return sqlparse.Value{Kind: sqlparse.NumberVal, N: fuzzNums[d.pick(len(fuzzNums))]}
	default:
		return sqlparse.Value{Kind: sqlparse.Placeholder, S: "?val"}
	}
}

func (d *astDecoder) selectItem() sqlparse.SelectItem {
	it := sqlparse.SelectItem{Star: d.pick(4) == 0, Agg: d.word(fuzzAggs, fuzzBadAggs), Distinct: d.pick(3) == 0}
	if !it.Star {
		it.Column = d.column()
	}
	return it
}

func (d *astDecoder) query() *sqlparse.Query {
	q := &sqlparse.Query{Distinct: d.pick(3) == 0, Limit: []int{-1, 0, 7}[d.pick(3)]}
	for n := d.count(3); n > 0; n-- {
		t := sqlparse.TableRef{Name: d.ident()}
		switch d.pick(3) {
		case 1:
			t.Alias = t.Name
		case 2:
			t.Alias = d.ident()
		}
		q.From = append(q.From, t)
		d.tables = append(d.tables, t.Name)
		if t.Alias != "" {
			d.tables = append(d.tables, t.Alias)
		}
	}
	for n := d.count(3); n > 0; n-- {
		q.Select = append(q.Select, d.selectItem())
	}
	for n := d.pick(5); n > 0; n-- {
		switch d.pick(4) {
		case 0:
			q.Where = append(q.Where, sqlparse.JoinCond{Left: d.column(), Right: d.column()})
		case 1:
			q.Where = append(q.Where, sqlparse.Pred{Column: d.column(), Op: d.word(fuzzOps, fuzzBadOps), Value: d.value()})
		case 2:
			in := sqlparse.InPred{Column: d.column()}
			for m := d.pick(3); m > 0; m-- {
				in.Values = append(in.Values, d.value())
			}
			q.Where = append(q.Where, in)
		default:
			q.Where = append(q.Where, sqlparse.BetweenPred{Column: d.column(), Lo: d.value(), Hi: d.value()})
		}
	}
	for n := d.pick(3); n > 0; n-- {
		q.GroupBy = append(q.GroupBy, d.column())
	}
	for n := d.pick(3); n > 0; n-- {
		q.OrderBy = append(q.OrderBy, sqlparse.OrderItem{Expr: d.selectItem(), Desc: d.pick(2) == 0})
	}
	return q
}
