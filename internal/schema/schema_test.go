package schema

import (
	"strings"
	"testing"
)

// tinyGraph builds the simplified MAS fragment from the paper's Figure 1:
// publication -(jid)-> journal, publication_keyword bridging publication and
// keyword, etc.
func tinyGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddRelation(Relation{Name: "journal", Attributes: []Attribute{
		{Name: "jid", Type: Number, PrimaryKey: true},
		{Name: "name", Type: Text},
	}}))
	must(g.AddRelation(Relation{Name: "publication", Attributes: []Attribute{
		{Name: "pid", Type: Number, PrimaryKey: true},
		{Name: "title", Type: Text},
		{Name: "year", Type: Number},
		{Name: "jid", Type: Number},
	}}))
	must(g.AddRelation(Relation{Name: "keyword", Attributes: []Attribute{
		{Name: "kid", Type: Number, PrimaryKey: true},
		{Name: "keyword", Type: Text},
	}}))
	must(g.AddRelation(Relation{Name: "publication_keyword", Attributes: []Attribute{
		{Name: "pid", Type: Number},
		{Name: "kid", Type: Number},
	}}))
	must(g.AddForeignKey(ForeignKey{"publication", "jid", "journal", "jid"}))
	must(g.AddForeignKey(ForeignKey{"publication_keyword", "pid", "publication", "pid"}))
	must(g.AddForeignKey(ForeignKey{"publication_keyword", "kid", "keyword", "kid"}))
	return g
}

func TestAddRelationRejectsDuplicates(t *testing.T) {
	g := NewGraph()
	if err := g.AddRelation(Relation{Name: "r"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddRelation(Relation{Name: "r"}); err == nil {
		t.Fatal("expected duplicate relation error")
	}
	if err := g.AddRelation(Relation{Name: ""}); err == nil {
		t.Fatal("expected empty-name error")
	}
	if err := g.AddRelation(Relation{Name: "s", Attributes: []Attribute{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Fatal("expected duplicate attribute error")
	}
}

func TestAddForeignKeyValidatesEndpoints(t *testing.T) {
	g := tinyGraph(t)
	bad := []ForeignKey{
		{"nope", "x", "journal", "jid"},
		{"publication", "nope", "journal", "jid"},
		{"publication", "jid", "nope", "jid"},
		{"publication", "jid", "journal", "nope"},
	}
	for _, fk := range bad {
		if err := g.AddForeignKey(fk); err == nil {
			t.Errorf("AddForeignKey(%v): expected error", fk)
		}
	}
}

func TestNeighborsAndEdges(t *testing.T) {
	g := tinyGraph(t)
	nb := g.Neighbors("publication")
	want := []string{"journal", "publication_keyword"}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors(publication) = %v, want %v", nb, want)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(publication) = %v, want %v", nb, want)
		}
	}
	// Symmetric view: an FK-PK edge links both of its relations.
	if nb := g.Neighbors("journal"); len(nb) != 1 || nb[0] != "publication" {
		t.Fatalf("Neighbors(journal) = %v", nb)
	}
	for _, n := range g.Neighbors("journal") {
		if n == "keyword" {
			t.Fatal("journal and keyword must not be adjacent")
		}
	}
	if g.Neighbors("nope") != nil {
		t.Fatal("unknown relation must have no neighbours")
	}
}

func TestStats(t *testing.T) {
	g := tinyGraph(t)
	s := g.Stats()
	if s.Relations != 4 || s.Attributes != 10 || s.ForeignKeys != 3 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestQualifiedAndTypedAttributeEnumeration(t *testing.T) {
	g := tinyGraph(t)
	qa := g.QualifiedAttributes()
	if len(qa) != 10 {
		t.Fatalf("QualifiedAttributes len = %d", len(qa))
	}
	if qa[0] != "journal.jid" || qa[1] != "journal.name" {
		t.Fatalf("unexpected order: %v", qa[:2])
	}
	var text, num []string
	for _, q := range qa {
		rn, an, _ := strings.Cut(q, ".")
		r, _ := g.Relation(rn)
		if a, _ := r.Attribute(an); a.Type == Text {
			text = append(text, q)
		} else {
			num = append(num, q)
		}
	}
	for _, q := range text {
		if strings.Contains(q, "id") {
			t.Errorf("id column classified as text: %s", q)
		}
	}
	if len(text) != 3 { // journal.name, publication.title, keyword.keyword
		t.Fatalf("text attributes = %v", text)
	}
	if len(num) != 7 {
		t.Fatalf("numeric attributes = %v", num)
	}
}

func TestPrimaryKeyLookup(t *testing.T) {
	g := tinyGraph(t)
	r, _ := g.Relation("publication")
	if pk := r.PrimaryKey(); pk != "pid" {
		t.Fatalf("PrimaryKey = %q", pk)
	}
	r2, _ := g.Relation("publication_keyword")
	if pk := r2.PrimaryKey(); pk != "" {
		t.Fatalf("junction table PrimaryKey = %q, want empty", pk)
	}
}

func TestValidateTypeCompatibility(t *testing.T) {
	g := NewGraph()
	_ = g.AddRelation(Relation{Name: "a", Attributes: []Attribute{{Name: "x", Type: Text}}})
	_ = g.AddRelation(Relation{Name: "b", Attributes: []Attribute{{Name: "y", Type: Number}}})
	_ = g.AddForeignKey(ForeignKey{"a", "x", "b", "y"})
	if err := g.Validate(); err == nil {
		t.Fatal("expected type mismatch error")
	}
	if err := tinyGraph(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRelationsReturnsCopy(t *testing.T) {
	g := tinyGraph(t)
	rels := g.Relations()
	rels[0] = "clobbered"
	if g.Relations()[0] == "clobbered" {
		t.Fatal("Relations exposed internal slice")
	}
	fks := g.ForeignKeys()
	fks[0].FromRel = "clobbered"
	if g.ForeignKeys()[0].FromRel == "clobbered" {
		t.Fatal("ForeignKeys exposed internal slice")
	}
}

func TestTypeString(t *testing.T) {
	if Text.String() != "text" || Number.String() != "number" {
		t.Fatal("Type.String mismatch")
	}
	if Type(99).String() == "" {
		t.Fatal("unknown type should still render")
	}
}
