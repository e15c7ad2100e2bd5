package joinpath

import (
	"context"
	"sort"
	"strings"
	"testing"

	"templar/internal/datasets"
	"templar/internal/schema"
)

// masGraph builds the schema of the paper's Figure 1 (simplified Microsoft
// Academic Search database).
func masGraph(t testing.TB) *schema.Graph {
	t.Helper()
	g := schema.NewGraph()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	num := func(name string, pk bool) schema.Attribute {
		return schema.Attribute{Name: name, Type: schema.Number, PrimaryKey: pk}
	}
	text := func(name string) schema.Attribute {
		return schema.Attribute{Name: name, Type: schema.Text}
	}
	must(g.AddRelation(schema.Relation{Name: "organization", Attributes: []schema.Attribute{num("oid", true), text("name")}}))
	must(g.AddRelation(schema.Relation{Name: "author", Attributes: []schema.Attribute{num("aid", true), text("name"), num("oid", false)}}))
	must(g.AddRelation(schema.Relation{Name: "publication", Attributes: []schema.Attribute{num("pid", true), text("title"), num("year", false), num("cid", false), num("jid", false)}}))
	must(g.AddRelation(schema.Relation{Name: "writes", Attributes: []schema.Attribute{num("aid", false), num("pid", false)}}))
	must(g.AddRelation(schema.Relation{Name: "cite", Attributes: []schema.Attribute{num("citing", false), num("cited", false)}}))
	must(g.AddRelation(schema.Relation{Name: "journal", Attributes: []schema.Attribute{num("jid", true), text("name")}}))
	must(g.AddRelation(schema.Relation{Name: "conference", Attributes: []schema.Attribute{num("cid", true), text("name")}}))
	must(g.AddRelation(schema.Relation{Name: "domain", Attributes: []schema.Attribute{num("did", true), text("name")}}))
	must(g.AddRelation(schema.Relation{Name: "keyword", Attributes: []schema.Attribute{num("kid", true), text("keyword")}}))
	must(g.AddRelation(schema.Relation{Name: "domain_journal", Attributes: []schema.Attribute{num("did", false), num("jid", false)}}))
	must(g.AddRelation(schema.Relation{Name: "domain_conference", Attributes: []schema.Attribute{num("did", false), num("cid", false)}}))
	must(g.AddRelation(schema.Relation{Name: "domain_keyword", Attributes: []schema.Attribute{num("did", false), num("kid", false)}}))
	must(g.AddRelation(schema.Relation{Name: "publication_keyword", Attributes: []schema.Attribute{num("pid", false), num("kid", false)}}))
	fks := []schema.ForeignKey{
		{FromRel: "author", FromAttr: "oid", ToRel: "organization", ToAttr: "oid"},
		{FromRel: "writes", FromAttr: "aid", ToRel: "author", ToAttr: "aid"},
		{FromRel: "writes", FromAttr: "pid", ToRel: "publication", ToAttr: "pid"},
		{FromRel: "publication", FromAttr: "cid", ToRel: "conference", ToAttr: "cid"},
		{FromRel: "publication", FromAttr: "jid", ToRel: "journal", ToAttr: "jid"},
		{FromRel: "cite", FromAttr: "citing", ToRel: "publication", ToAttr: "pid"},
		{FromRel: "cite", FromAttr: "cited", ToRel: "publication", ToAttr: "pid"},
		{FromRel: "domain_journal", FromAttr: "did", ToRel: "domain", ToAttr: "did"},
		{FromRel: "domain_journal", FromAttr: "jid", ToRel: "journal", ToAttr: "jid"},
		{FromRel: "domain_conference", FromAttr: "did", ToRel: "domain", ToAttr: "did"},
		{FromRel: "domain_conference", FromAttr: "cid", ToRel: "conference", ToAttr: "cid"},
		{FromRel: "domain_keyword", FromAttr: "did", ToRel: "domain", ToAttr: "did"},
		{FromRel: "domain_keyword", FromAttr: "kid", ToRel: "keyword", ToAttr: "kid"},
		{FromRel: "publication_keyword", FromAttr: "pid", ToRel: "publication", ToAttr: "pid"},
		{FromRel: "publication_keyword", FromAttr: "kid", ToRel: "keyword", ToAttr: "kid"},
	}
	for _, fk := range fks {
		must(g.AddForeignKey(fk))
	}
	return g
}

// mapDice is a DiceSource backed by a fixed map.
type mapDice map[[2]string]float64

func (m mapDice) DiceRelations(a, b string) float64 {
	if b < a {
		a, b = b, a
	}
	return m[[2]string{a, b}]
}

func dicePair(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

func TestSingleRelationPath(t *testing.T) {
	gen := NewGenerator(masGraph(t), nil)
	paths, err := gen.Infer([]string{"publication"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
	p := paths[0]
	if len(p.Edges) != 0 || p.Score != 1 || p.Goodness != 1 || p.Relations[0] != "publication" {
		t.Fatalf("path = %+v", p)
	}
}

func TestDirectJoin(t *testing.T) {
	gen := NewGenerator(masGraph(t), nil)
	paths, err := gen.Infer([]string{"publication", "journal"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := paths[0]
	if len(p.Edges) != 1 || p.Edges[0].FK.FromRel != "publication" || p.Edges[0].FK.ToRel != "journal" {
		t.Fatalf("path = %+v", p)
	}
	if p.TotalWeight != 1 {
		t.Fatalf("TotalWeight = %v", p.TotalWeight)
	}
}

func TestExample2UniformWeightsPickShortestPath(t *testing.T) {
	// Example 2: with default weights, publication–domain resolves through
	// conference or journal (3 edges), not through keyword (4 edges).
	gen := NewGenerator(masGraph(t), nil)
	paths, err := gen.Infer([]string{"publication", "domain"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := paths[0]
	if len(p.Edges) != 3 {
		t.Fatalf("edges = %d, want 3: %v", len(p.Edges), p)
	}
	via := strings.Join(p.Relations, "-")
	if !strings.Contains(via, "conference") && !strings.Contains(via, "journal") {
		t.Fatalf("path should go through conference or journal: %v", via)
	}
	if strings.Contains(via, "keyword") {
		t.Fatalf("uniform weights must not pick keyword path: %v", via)
	}
}

func TestExample6LogWeightsPickKeywordPath(t *testing.T) {
	// Example 6: log evidence that publications are joined to domains via
	// keyword makes the 4-edge keyword path win over 3-edge alternatives.
	dice := mapDice{
		dicePair("publication", "publication_keyword"): 0.9,
		dicePair("publication_keyword", "keyword"):     0.9,
		dicePair("keyword", "domain_keyword"):          0.9,
		dicePair("domain_keyword", "domain"):           0.9,
	}
	gen := NewGenerator(masGraph(t), LogWeights(dice))
	paths, err := gen.Infer([]string{"publication", "domain"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := paths[0]
	want := []string{"domain", "domain_keyword", "keyword", "publication", "publication_keyword"}
	got := append([]string(nil), p.Relations...)
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("relations = %v, want %v (weight %v)", got, want, p.TotalWeight)
	}
	if len(p.Edges) != 4 {
		t.Fatalf("edges = %d, want 4", len(p.Edges))
	}
}

func TestSelfJoinForkExample7(t *testing.T) {
	// Example 7 / Figure 4: two authors of the same publication. The bag
	// contains author twice; the fork must clone author AND writes, sharing
	// publication.
	gen := NewGenerator(masGraph(t), nil)
	paths, err := gen.Infer([]string{"author", "author", "publication"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := paths[0]
	rels := strings.Join(p.Relations, ",")
	if !strings.Contains(rels, "author") || !strings.Contains(rels, "author#2") {
		t.Fatalf("missing author instances: %v", rels)
	}
	if !strings.Contains(rels, "writes") || !strings.Contains(rels, "writes#2") {
		t.Fatalf("missing writes instances: %v", rels)
	}
	count := 0
	for _, r := range p.Relations {
		if BaseRelation(r) == "publication" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("publication must be shared once: %v", rels)
	}
	if len(p.Edges) != 4 {
		t.Fatalf("edges = %d, want 4 (a1-w1, w1-p, a2-w2, w2-p): %v", len(p.Edges), p.Edges)
	}
}

func TestParallelEdgesCite(t *testing.T) {
	// cite has two parallel FK edges to publication (citing, cited). A
	// cite–publication path must pick exactly one.
	gen := NewGenerator(masGraph(t), nil)
	paths, err := gen.Infer([]string{"cite", "publication"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths[0].Edges) != 1 {
		t.Fatalf("best path = %+v", paths[0])
	}
	// With topK > 1 the sibling parallel edge appears as an alternative.
	if len(paths) < 2 {
		t.Fatalf("expected the parallel edge alternative, got %d paths", len(paths))
	}
	if paths[0].Edges[0].FK.FromAttr == paths[1].Edges[0].FK.FromAttr {
		t.Fatalf("alternatives should use different FK columns: %v vs %v", paths[0].Edges, paths[1].Edges)
	}
}

func TestAlternativePathsAreDistinctAndSorted(t *testing.T) {
	gen := NewGenerator(masGraph(t), nil)
	paths, err := gen.Infer([]string{"publication", "domain"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, p := range paths {
		k := p.canonical()
		if seen[k] {
			t.Fatalf("duplicate path %v", p)
		}
		seen[k] = true
		if i > 0 && p.TotalWeight < paths[i-1].TotalWeight {
			t.Fatalf("paths not sorted by weight: %v", paths)
		}
	}
	if len(paths) < 2 {
		t.Fatalf("expected at least the journal and conference variants, got %d", len(paths))
	}
}

func TestInferErrors(t *testing.T) {
	gen := NewGenerator(masGraph(t), nil)
	if _, err := gen.Infer(nil, 1); err == nil {
		t.Error("empty bag must error")
	}
	if _, err := gen.Infer([]string{"nonexistent"}, 1); err == nil {
		t.Error("unknown relation must error")
	}
	// Disconnected graph.
	g := schema.NewGraph()
	_ = g.AddRelation(schema.Relation{Name: "a", Attributes: []schema.Attribute{{Name: "x", Type: schema.Number, PrimaryKey: true}}})
	_ = g.AddRelation(schema.Relation{Name: "b", Attributes: []schema.Attribute{{Name: "y", Type: schema.Number, PrimaryKey: true}}})
	gen2 := NewGenerator(g, nil)
	if _, err := gen2.Infer([]string{"a", "b"}, 1); err == nil {
		t.Error("disconnected relations must error")
	}
}

func TestPathIsTreeInvariant(t *testing.T) {
	// Property: every returned path is a tree spanning the requested bag:
	// |E| = |V| - 1 and each requested relation appears with the right
	// multiplicity.
	gen := NewGenerator(masGraph(t), nil)
	bags := [][]string{
		{"publication"},
		{"publication", "journal"},
		{"publication", "domain"},
		{"author", "organization"},
		{"author", "publication", "keyword"},
		{"author", "author", "publication"},
		{"journal", "conference"},
		{"organization", "domain"},
		{"author", "author", "author", "publication"},
	}
	for _, bag := range bags {
		paths, err := gen.Infer(bag, 5)
		if err != nil {
			t.Fatalf("%v: %v", bag, err)
		}
		for _, p := range paths {
			if len(p.Edges) != len(p.Relations)-1 {
				t.Errorf("%v: not a tree: %d edges, %d vertices", bag, len(p.Edges), len(p.Relations))
			}
			// Multiplicity check.
			counts := map[string]int{}
			for _, r := range p.Relations {
				counts[BaseRelation(r)]++
			}
			want := map[string]int{}
			for _, r := range bag {
				want[r]++
			}
			for r, c := range want {
				if counts[r] < c {
					t.Errorf("%v: relation %s multiplicity %d < %d in %v", bag, r, counts[r], c, p.Relations)
				}
			}
			// Connectivity via union-find over edges.
			parent := map[string]string{}
			var find func(string) string
			find = func(x string) string {
				if parent[x] == "" || parent[x] == x {
					parent[x] = x
					return x
				}
				r := find(parent[x])
				parent[x] = r
				return r
			}
			for _, e := range p.Edges {
				parent[find(e.FromInst)] = find(e.ToInst)
			}
			if len(p.Relations) > 1 {
				root := find(p.Relations[0])
				for _, r := range p.Relations[1:] {
					if find(r) != root {
						t.Errorf("%v: path not connected: %v", bag, p)
					}
				}
			}
		}
	}
}

func TestScoreFormula(t *testing.T) {
	gen := NewGenerator(masGraph(t), nil)
	paths, _ := gen.Infer([]string{"publication", "domain"}, 1)
	p := paths[0]
	want := p.TotalWeight / float64(len(p.Edges)*len(p.Edges))
	if p.Score != want {
		t.Fatalf("Score = %v, want %v", p.Score, want)
	}
	if p.Goodness != 1/(1+p.TotalWeight) {
		t.Fatalf("Goodness = %v", p.Goodness)
	}
}

func TestLogWeightsFloor(t *testing.T) {
	dice := mapDice{dicePair("a", "b"): 1.0}
	w := LogWeights(dice)
	if got := w("a", "b"); got <= 0 {
		t.Fatalf("weight must stay positive, got %v", got)
	}
	if got := w("x", "y"); got != 1 {
		t.Fatalf("unknown pair weight = %v, want 1", got)
	}
}

// mapCount is a CountSource backed by a fixed map.
type mapCount map[[2]string]int

func (m mapCount) RelationCoOccurrences(a, b string) int {
	if b < a {
		a, b = b, a
	}
	return m[[2]string{a, b}]
}

func TestCountWeights(t *testing.T) {
	src := mapCount{dicePair("a", "b"): 9}
	w := CountWeights(src)
	if got := w("a", "b"); got != 0.1 {
		t.Fatalf("weight = %v, want 0.1", got)
	}
	if got := w("x", "y"); got != 1 {
		t.Fatalf("unknown pair weight = %v, want 1", got)
	}
	// The hub failure mode Dice prevents: a pair with high raw counts is
	// always cheap under CountWeights even when the hub co-occurs with
	// everything (Dice would normalize it away).
	hub := mapCount{dicePair("hub", "x"): 99, dicePair("hub", "y"): 99}
	hw := CountWeights(hub)
	if hw("hub", "x") >= 0.5 || hw("hub", "y") >= 0.5 {
		t.Fatal("hub edges should be cheap under raw counts")
	}
}

func TestBaseRelation(t *testing.T) {
	if BaseRelation("author#2") != "author" || BaseRelation("author") != "author" {
		t.Fatal("BaseRelation")
	}
}

func TestForkTerminatesAtOutgoingFKs(t *testing.T) {
	// Algorithm 4: the fork clones relations that REFERENCE the duplicated
	// vertex (writes) but reattaches to shared targets of outgoing FKs
	// (organization via author.oid). The forked graph therefore contains
	// writes#2 but never organization#2.
	g := masGraph(t)
	_ = g // masGraph has author.oid -> organization
	gen := NewGenerator(g, nil)
	paths, err := gen.Infer([]string{"author", "author", "organization"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		for _, inst := range p.Relations {
			if inst == "organization#2" {
				t.Fatalf("organization must be shared, not cloned: %v", p.Relations)
			}
		}
	}
	// The minimal tree for {author, author, organization} is the shared
	// employer: author–organization–author#2, two edges.
	if len(paths[0].Edges) != 2 {
		t.Fatalf("best path = %+v", paths[0])
	}
}

func TestLogWeightsSteerSelfJoinRoute(t *testing.T) {
	// With uniform weights, {author, author, publication} can route the
	// two authors through organization (equal cost); log evidence that
	// author co-occurs with writes steers the tree through the junction.
	dice := mapDice{
		dicePair("author", "writes"):      0.9,
		dicePair("writes", "publication"): 0.9,
	}
	gen := NewGenerator(masGraph(t), LogWeights(dice))
	paths, err := gen.Infer([]string{"author", "author", "publication"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rels := strings.Join(paths[0].Relations, ",")
	if !strings.Contains(rels, "writes") || !strings.Contains(rels, "writes#2") {
		t.Fatalf("log weights should pick the writes route: %v", rels)
	}
	if strings.Contains(rels, "organization") {
		t.Fatalf("organization shortcut should lose under log weights: %v", rels)
	}
}

func TestTripleSelfJoin(t *testing.T) {
	gen := NewGenerator(masGraph(t), nil)
	paths, err := gen.Infer([]string{"author", "author", "author", "publication"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := paths[0]
	authors := 0
	for _, r := range p.Relations {
		if BaseRelation(r) == "author" {
			authors++
		}
	}
	if authors != 3 {
		t.Fatalf("author instances = %d, want 3: %v", authors, p.Relations)
	}
}

func BenchmarkInferUniform(b *testing.B) {
	gen := NewGenerator(masGraph(b), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Infer([]string{"publication", "domain"}, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInferSelfJoin(b *testing.B) {
	gen := NewGenerator(masGraph(b), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Infer([]string{"author", "author", "publication"}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferMiss times the uncached search (the path every cache miss
// and every first read after a publish takes) over a fixed rotation of
// sorted bags on the bundled MAS schema, one of them a self-join.
func BenchmarkInferMiss(b *testing.B) {
	gen := NewGenerator(datasets.MAS().DB.Schema(), nil)
	bags := [][]string{
		{"domain", "publication"},
		{"author", "keyword", "organization"},
		{"author", "author", "publication"},
		{"conference", "domain", "journal", "publication"},
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.inferUncached(ctx, bags[i%len(bags)]); err != nil {
			b.Fatal(err)
		}
	}
}
