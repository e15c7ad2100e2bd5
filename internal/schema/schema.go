// Package schema models the schema graph of a relational database as defined
// in the paper (Definition 1): relation vertices, attribute vertices,
// projection edges from a relation to each of its attributes, and FK-PK join
// edges from foreign-key attribute vertices to primary-key attribute vertices.
//
// The schema graph is the substrate for both keyword mapping (candidate
// relations/attributes come from it) and join path inference (Steiner trees
// are computed over it).
package schema

import (
	"fmt"
	"sort"
)

// Type identifies the value domain of an attribute.
type Type int

const (
	// Text attributes hold free-form strings and are full-text indexed.
	Text Type = iota
	// Number attributes hold numeric values (int or float).
	Number
)

// String returns "text" or "number".
func (t Type) String() string {
	switch t {
	case Text:
		return "text"
	case Number:
		return "number"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Attribute describes one column of a relation.
type Attribute struct {
	// Name is the column name, unique within its relation.
	Name string
	// Type is the value domain.
	Type Type
	// PrimaryKey marks the relation's primary key column.
	PrimaryKey bool
}

// Relation describes one table and its attributes.
type Relation struct {
	// Name is the table name, unique within the graph.
	Name string
	// Attributes lists the columns in declaration order.
	Attributes []Attribute
}

// Attribute returns the attribute with the given name, or false.
func (r *Relation) Attribute(name string) (Attribute, bool) {
	for _, a := range r.Attributes {
		if a.Name == name {
			return a, true
		}
	}
	return Attribute{}, false
}

// PrimaryTextAttribute returns the relation's first text-typed attribute,
// or "". By common schema convention this is the human-readable label of
// the entity (name, title, text), which NLIDBs prefer as the default
// projection when a keyword names the entity but no specific attribute.
func (r *Relation) PrimaryTextAttribute() string {
	for _, a := range r.Attributes {
		if a.Type == Text {
			return a.Name
		}
	}
	return ""
}

// PrimaryKey returns the name of the primary key attribute, or "".
func (r *Relation) PrimaryKey() string {
	for _, a := range r.Attributes {
		if a.PrimaryKey {
			return a.Name
		}
	}
	return ""
}

// ForeignKey is an FK-PK join edge: FromRel.FromAttr references ToRel.ToAttr.
type ForeignKey struct {
	FromRel  string
	FromAttr string
	ToRel    string
	ToAttr   string
}

// String renders the edge as "a.b -> c.d".
func (fk ForeignKey) String() string {
	return fk.FromRel + "." + fk.FromAttr + " -> " + fk.ToRel + "." + fk.ToAttr
}

// Graph is the schema graph G_s = (V, E, w) of Definition 1. Vertices are
// addressed by name: relation vertices by relation name, attribute vertices
// by "relation.attribute".
type Graph struct {
	relations map[string]*Relation
	order     []string // relation names in insertion order, for determinism
	fks       []ForeignKey
	// adjacency between relation vertices induced by FK-PK edges:
	// rel -> set of neighboring rels.
	adj map[string]map[string]bool
}

// NewGraph returns an empty schema graph.
func NewGraph() *Graph {
	return &Graph{
		relations: make(map[string]*Relation),
		adj:       make(map[string]map[string]bool),
	}
}

// AddRelation registers a relation. It returns an error if the name is empty,
// duplicated, or has duplicate attribute names.
func (g *Graph) AddRelation(r Relation) error {
	if r.Name == "" {
		return fmt.Errorf("schema: relation with empty name")
	}
	if _, ok := g.relations[r.Name]; ok {
		return fmt.Errorf("schema: duplicate relation %q", r.Name)
	}
	seen := make(map[string]bool, len(r.Attributes))
	for _, a := range r.Attributes {
		if a.Name == "" {
			return fmt.Errorf("schema: relation %q has attribute with empty name", r.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("schema: relation %q has duplicate attribute %q", r.Name, a.Name)
		}
		seen[a.Name] = true
	}
	cp := r
	cp.Attributes = append([]Attribute(nil), r.Attributes...)
	g.relations[r.Name] = &cp
	g.order = append(g.order, r.Name)
	return nil
}

// AddForeignKey registers an FK-PK join edge. Both endpoints must exist.
func (g *Graph) AddForeignKey(fk ForeignKey) error {
	from, ok := g.relations[fk.FromRel]
	if !ok {
		return fmt.Errorf("schema: foreign key %v: unknown relation %q", fk, fk.FromRel)
	}
	to, ok := g.relations[fk.ToRel]
	if !ok {
		return fmt.Errorf("schema: foreign key %v: unknown relation %q", fk, fk.ToRel)
	}
	if _, ok := from.Attribute(fk.FromAttr); !ok {
		return fmt.Errorf("schema: foreign key %v: unknown attribute %q.%q", fk, fk.FromRel, fk.FromAttr)
	}
	if _, ok := to.Attribute(fk.ToAttr); !ok {
		return fmt.Errorf("schema: foreign key %v: unknown attribute %q.%q", fk, fk.ToRel, fk.ToAttr)
	}
	g.fks = append(g.fks, fk)
	g.link(fk.FromRel, fk.ToRel)
	g.link(fk.ToRel, fk.FromRel)
	return nil
}

func (g *Graph) link(a, b string) {
	m := g.adj[a]
	if m == nil {
		m = make(map[string]bool)
		g.adj[a] = m
	}
	m[b] = true
}

// Relation returns the relation with the given name, or false.
func (g *Graph) Relation(name string) (*Relation, bool) {
	r, ok := g.relations[name]
	return r, ok
}

// Relations returns relation names in insertion order. The slice is a copy.
func (g *Graph) Relations() []string {
	return append([]string(nil), g.order...)
}

// ForeignKeys returns all FK-PK edges in insertion order. The slice is a copy.
func (g *Graph) ForeignKeys() []ForeignKey {
	return append([]ForeignKey(nil), g.fks...)
}

// Neighbors returns the relation names adjacent to rel via any FK-PK edge,
// sorted for determinism.
func (g *Graph) Neighbors(rel string) []string {
	m := g.adj[rel]
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Stats summarizes the graph for Table II-style reporting.
type Stats struct {
	Relations   int
	Attributes  int
	ForeignKeys int
}

// Stats returns relation/attribute/FK-PK counts.
func (g *Graph) Stats() Stats {
	s := Stats{Relations: len(g.relations), ForeignKeys: len(g.fks)}
	for _, r := range g.relations {
		s.Attributes += len(r.Attributes)
	}
	return s
}

// QualifiedAttributes returns every "rel.attr" pair in deterministic order.
func (g *Graph) QualifiedAttributes() []string {
	var out []string
	for _, rn := range g.order {
		r := g.relations[rn]
		for _, a := range r.Attributes {
			out = append(out, rn+"."+a.Name)
		}
	}
	return out
}

// Validate checks structural invariants: every relation has a primary key if
// it is referenced by any FK, and FK endpoints have compatible types.
func (g *Graph) Validate() error {
	for _, fk := range g.fks {
		fa, _ := g.relations[fk.FromRel].Attribute(fk.FromAttr)
		ta, _ := g.relations[fk.ToRel].Attribute(fk.ToAttr)
		if fa.Type != ta.Type {
			return fmt.Errorf("schema: foreign key %v joins %v to %v", fk, fa.Type, ta.Type)
		}
	}
	return nil
}
