package db

import (
	"fmt"

	"templar/internal/schema"
)

// Database binds a schema graph to table storage.
type Database struct {
	graph  *schema.Graph
	tables map[string]*Table
}

// New creates an empty database over a schema graph, with one table per
// relation.
func New(g *schema.Graph) *Database {
	d := &Database{graph: g, tables: make(map[string]*Table)}
	for _, rn := range g.Relations() {
		rel, _ := g.Relation(rn)
		d.tables[rn] = newTable(*rel)
	}
	return d
}

// Schema returns the schema graph.
func (d *Database) Schema() *schema.Graph { return d.graph }

// Table returns the table for a relation, or nil.
func (d *Database) Table(rel string) *Table { return d.tables[rel] }

// Insert adds a row to a relation.
func (d *Database) Insert(rel string, row []Value) error {
	t, ok := d.tables[rel]
	if !ok {
		return fmt.Errorf("db: unknown relation %q", rel)
	}
	return t.Insert(row)
}

// MustInsert is Insert that panics on error; for dataset generators whose
// rows are statically well-typed.
func (d *Database) MustInsert(rel string, row []Value) {
	if err := d.Insert(rel, row); err != nil {
		panic(err)
	}
}
