package db

import (
	"fmt"
	"testing"

	"templar/internal/sqlparse"
)

// TestExecuteFilterMatchesBruteForce cross-checks the executor's single
// table filtering against a direct scan for generated predicates.
func TestExecuteFilterMatchesBruteForce(t *testing.T) {
	d := academicDB(t)
	tab := d.Table("publication")
	rows := tab.Rows()
	yearIdx := tab.ColumnIndex("year")
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	for _, op := range ops {
		for _, y := range []float64{1990, 1998, 2001, 2005, 2010} {
			src := fmt.Sprintf("SELECT p.pid FROM publication p WHERE p.year %s %g", op, y)
			q := sqlparse.MustParse(src)
			res, err := d.Execute(q)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			want := 0
			for _, r := range rows {
				ok, err := r[yearIdx].Compare(op, Num(y))
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					want++
				}
			}
			if len(res.Rows) != want {
				t.Errorf("%s: executor %d rows, brute force %d", src, len(res.Rows), want)
			}
		}
	}
}

// TestExecuteJoinMatchesBruteForce cross-checks the nested-loop join
// against a manual double loop.
func TestExecuteJoinMatchesBruteForce(t *testing.T) {
	d := academicDB(t)
	q := sqlparse.MustParse("SELECT p.pid, j.jid FROM publication p, journal j WHERE p.jid = j.jid")
	res, err := d.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	pubs := d.Table("publication").Rows()
	jours := d.Table("journal").Rows()
	pj := d.Table("publication").ColumnIndex("jid")
	jj := d.Table("journal").ColumnIndex("jid")
	want := 0
	for _, p := range pubs {
		for _, j := range jours {
			if p[pj].Equal(j[jj]) {
				want++
			}
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("join: executor %d, brute force %d", len(res.Rows), want)
	}
}
