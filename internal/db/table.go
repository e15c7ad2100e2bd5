package db

import (
	"fmt"
	"slices"

	"templar/internal/schema"
)

// Table holds the rows of one relation.
type Table struct {
	rel    schema.Relation
	colIdx map[string]int
	rows   [][]Value
}

// newTable builds an empty table for a relation definition.
func newTable(rel schema.Relation) *Table {
	t := &Table{rel: rel, colIdx: make(map[string]int, len(rel.Attributes))}
	for i, a := range rel.Attributes {
		t.colIdx[a.Name] = i
	}
	return t
}

// Name returns the relation name.
func (t *Table) Name() string { return t.rel.Name }

// Len returns the row count.
func (t *Table) Len() int { return len(t.rows) }

// Insert appends a row. Values must match the declared column count and
// types.
func (t *Table) Insert(row []Value) error {
	if len(row) != len(t.rel.Attributes) {
		return fmt.Errorf("db: %s: row has %d values, want %d", t.rel.Name, len(row), len(t.rel.Attributes))
	}
	for i, v := range row {
		want := t.rel.Attributes[i].Type == schema.Number
		if v.IsNum != want {
			return fmt.Errorf("db: %s.%s: value %v has wrong type", t.rel.Name, t.rel.Attributes[i].Name, v)
		}
	}
	t.rows = append(t.rows, append([]Value(nil), row...))
	return nil
}

// DistinctValues returns the sorted distinct values of a text column, or
// nil for a numeric or unknown column.
func (t *Table) DistinctValues(column string) []string {
	ci, ok := t.colIdx[column]
	if !ok || t.rel.Attributes[ci].Type != schema.Text {
		return nil
	}
	out := make([]string, len(t.rows))
	for i, row := range t.rows {
		out[i] = row[ci].S
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Rows returns the table's rows. They are shared with the table: callers
// must not modify them.
func (t *Table) Rows() [][]Value { return t.rows }

// ColumnIndex returns the position of a column, or -1.
func (t *Table) ColumnIndex(column string) int {
	if i, ok := t.colIdx[column]; ok {
		return i
	}
	return -1
}
