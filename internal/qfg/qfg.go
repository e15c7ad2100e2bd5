package qfg

import (
	"cmp"
	"fmt"

	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

// compare orders fragments by (context, expr): the order new fragments
// are interned in, so IDs are deterministic however the log arrives.
func compare(a, b fragment.Fragment) int {
	if c := cmp.Compare(a.Context, b.Context); c != 0 {
		return c
	}
	return cmp.Compare(a.Expr, b.Expr)
}

// Build mines a parsed log into a snapshot over a fresh interning table:
// one splice of the whole log onto an empty snapshot, so every fragment
// is interned in one sorted pass. Queries are alias-resolved in place. It
// returns an error if any log entry fails alias resolution.
func Build(entries []sqlparse.LogEntry, ob fragment.Obscurity) (*Snapshot, error) {
	queries := make([]*sqlparse.Query, len(entries))
	counts := make([]int, len(entries))
	for i, e := range entries {
		if err := e.Query.Resolve(nil); err != nil {
			return nil, fmt.Errorf("qfg: log entry %d: %w", i, err)
		}
		queries[i], counts[i] = e.Query, e.Count
	}
	empty := &Snapshot{obscurity: ob, interner: fragment.NewInterner(), rowStart: []uint32{0}}
	d := newDelta(empty)
	d.addQueries(queries, counts)
	return splice(empty, d), nil
}

// Entry pairs a fragment with its occurrence count, for inspection tools.
type Entry struct {
	Fragment fragment.Fragment
	Count    int
}

// NeighborEntry pairs a co-occurring fragment with the pair's raw
// co-occurrence count and within-query Dice score.
type NeighborEntry struct {
	Fragment fragment.Fragment
	Count    int
	Dice     float64
}
