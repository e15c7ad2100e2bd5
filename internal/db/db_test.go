package db

import (
	"testing"

	"templar/internal/schema"
	"templar/internal/sqlparse"
)

// academicDB builds a small MAS-like database for testing.
func academicDB(t *testing.T) *Database {
	t.Helper()
	g := schema.NewGraph()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddRelation(schema.Relation{Name: "journal", Attributes: []schema.Attribute{
		{Name: "jid", Type: schema.Number, PrimaryKey: true},
		{Name: "name", Type: schema.Text},
	}}))
	must(g.AddRelation(schema.Relation{Name: "publication", Attributes: []schema.Attribute{
		{Name: "pid", Type: schema.Number, PrimaryKey: true},
		{Name: "title", Type: schema.Text},
		{Name: "year", Type: schema.Number},
		{Name: "citations", Type: schema.Number},
		{Name: "jid", Type: schema.Number},
	}}))
	must(g.AddForeignKey(schema.ForeignKey{FromRel: "publication", FromAttr: "jid", ToRel: "journal", ToAttr: "jid"}))
	d := New(g)
	d.MustInsert("journal", []Value{Num(1), Str("TKDE")})
	d.MustInsert("journal", []Value{Num(2), Str("TMC")})
	d.MustInsert("publication", []Value{Num(10), Str("Efficient Query Processing in Relational Databases"), Num(2001), Num(35), Num(1)})
	d.MustInsert("publication", []Value{Num(11), Str("Mobile Computing Surveys"), Num(1998), Num(12), Num(2)})
	d.MustInsert("publication", []Value{Num(12), Str("Keyword Search over Databases"), Num(2005), Num(70), Num(1)})
	return d
}

func TestInsertTypeChecking(t *testing.T) {
	d := academicDB(t)
	if err := d.Insert("journal", []Value{Str("bad"), Str("x")}); err == nil {
		t.Fatal("expected type error for string in numeric column")
	}
	if err := d.Insert("journal", []Value{Num(3)}); err == nil {
		t.Fatal("expected arity error")
	}
	if err := d.Insert("nope", []Value{Num(3)}); err == nil {
		t.Fatal("expected unknown relation error")
	}
}

// TestPredicateNonEmpty: the executor answers exec(c) ≠ ∅ for a
// candidate predicate c, the probe of SCOREANDPRUNE (§V-B), and rejects
// predicates over unknown relations or columns.
func TestPredicateNonEmpty(t *testing.T) {
	d := academicDB(t)
	exec := func(src string) (int, error) {
		res, err := d.Execute(sqlparse.MustParse(src))
		if err != nil {
			return 0, err
		}
		return len(res.Rows), nil
	}
	if n, err := exec("SELECT p.year FROM publication p WHERE p.year > 2000"); err != nil || n == 0 {
		t.Fatalf("year > 2000 should be non-empty: %d rows, %v", n, err)
	}
	if n, err := exec("SELECT p.year FROM publication p WHERE p.year > 2010"); err != nil || n != 0 {
		t.Fatalf("year > 2010 should be empty: %d rows, %v", n, err)
	}
	if _, err := exec("SELECT n.year FROM nope n WHERE n.year > 0"); err == nil {
		t.Fatal("unknown relation should be an error")
	}
	if _, err := exec("SELECT p.nope FROM publication p WHERE p.nope > 0"); err == nil {
		t.Fatal("unknown column should be an error")
	}
	if n, err := exec("SELECT j.name FROM journal j WHERE j.name = 'TKDE'"); err != nil || n != 1 {
		t.Fatalf("name = TKDE should select one row: %d rows, %v", n, err)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a    Value
		op   string
		b    Value
		want bool
	}{
		{Num(1), "<", Num(2), true},
		{Num(2), "<=", Num(2), true},
		{Num(3), ">", Num(2), true},
		{Num(2), ">=", Num(3), false},
		{Num(2), "=", Num(2), true},
		{Num(2), "!=", Num(2), false},
		{Str("a"), "<", Str("b"), true},
		{Str("abc"), "LIKE", Str("abc"), true},
		{Str("abcdef"), "LIKE", Str("abc%"), true},
		{Str("xxabc"), "LIKE", Str("%abc"), true},
		{Str("xxabcyy"), "LIKE", Str("%abc%"), true},
		{Str("xyz"), "LIKE", Str("%abc%"), false},
		{Num(1), "=", Str("1"), false}, // cross-type
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.op, c.b)
		if err != nil {
			t.Fatalf("%v %s %v: %v", c.a, c.op, c.b, err)
		}
		if got != c.want {
			t.Errorf("%v %s %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
	if _, err := Num(1).Compare("~", Num(2)); err == nil {
		t.Fatal("expected unknown operator error")
	}
}

func TestDistinctValues(t *testing.T) {
	d := academicDB(t)
	vals := d.Table("journal").DistinctValues("name")
	if len(vals) != 2 || vals[0] != "TKDE" || vals[1] != "TMC" {
		t.Fatalf("DistinctValues = %v", vals)
	}
	if d.Table("journal").DistinctValues("jid") != nil {
		t.Fatal("numeric column should have no distinct text values")
	}
	// A repeated value is listed once, in sorted position.
	d.MustInsert("journal", []Value{Num(3), Str("TKDE")})
	d.MustInsert("journal", []Value{Num(4), Str("CACM")})
	vals = d.Table("journal").DistinctValues("name")
	if len(vals) != 3 || vals[0] != "CACM" || vals[1] != "TKDE" || vals[2] != "TMC" {
		t.Fatalf("DistinctValues after duplicate insert = %v", vals)
	}
	if d.Table("journal").DistinctValues("nope") != nil {
		t.Fatal("unknown column should have no distinct values")
	}
}
