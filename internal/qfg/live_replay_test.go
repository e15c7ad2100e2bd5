package qfg

import (
	"math"
	"reflect"
	"testing"

	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

func parseAll(t *testing.T, sqls ...string) []*sqlparse.Query {
	t.Helper()
	out := make([]*sqlparse.Query, 0, len(sqls))
	for _, s := range sqls {
		q, err := sqlparse.Parse(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		out = append(out, q)
	}
	return out
}

// applyIncremental drives ops through the per-request entry points exactly
// as the serving layer does: one AddQueries or AddSession call — and hence
// one republish — per operation.
func applyIncremental(t *testing.T, l *Live, ops []ReplayOp) {
	t.Helper()
	for _, op := range ops {
		if op.Session {
			if err := l.AddSession(op.Queries, op.Count, op.Decay); err != nil {
				t.Fatal(err)
			}
		} else {
			l.AddQueries(op.Queries, op.Counts)
		}
	}
}

// assertSnapshotsBitIdentical compares two snapshots the way the store
// codec would serialize them: same interner table in the same ID order,
// and every compiled array equal with float64 weights bit for bit.
func assertSnapshotsBitIdentical(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(got.Interner().Fragments(), want.Interner().Fragments()) {
		t.Fatalf("interner tables diverged:\n got %v\nwant %v",
			got.Interner().Fragments(), want.Interner().Fragments())
	}
	gp, wp := got.Parts(), want.Parts()
	if gp.Obscurity != wp.Obscurity || gp.Queries != wp.Queries {
		t.Fatalf("snapshot scalars diverged: %+v vs %+v", gp.Obscurity, wp.Obscurity)
	}
	if !reflect.DeepEqual(gp.NV, wp.NV) || !reflect.DeepEqual(gp.RowStart, wp.RowStart) ||
		!reflect.DeepEqual(gp.ColID, wp.ColID) || !reflect.DeepEqual(gp.NECount, wp.NECount) {
		t.Fatal("compiled arrays diverged")
	}
	if len(gp.Co) != len(wp.Co) {
		t.Fatalf("co-occurrence arrays: %d vs %d entries", len(gp.Co), len(wp.Co))
	}
	for i := range gp.Co {
		if math.Float64bits(gp.Co[i]) != math.Float64bits(wp.Co[i]) {
			t.Fatalf("co-occurrence weight %d: %x vs %x bits", i,
				math.Float64bits(gp.Co[i]), math.Float64bits(wp.Co[i]))
		}
	}
}

// TestReplayMatchesIncremental is the recovery-parity gate at the engine
// level: folding a recorded op sequence in via one Replay call must yield a
// snapshot bit-identical — interner ID order included — to an engine that
// served the same ops one request at a time. The ops deliberately introduce
// fragments in anti-sorted order across operations (z_venue before
// a_author), so a replay that interned everything in one final sorted pass
// would assign different IDs and fail.
func TestReplayMatchesIncremental(t *testing.T) {
	base := `
3x: SELECT j.name FROM journal j
SELECT p.title FROM publication p WHERE p.year > 2003
`
	ops := []ReplayOp{
		{Queries: parseAll(t, "SELECT z.name FROM z_venue z"), Counts: []int{2}},
		{Session: true, Count: 1, Decay: 0.5, Queries: parseAll(t,
			"SELECT a.name FROM a_author a",
			"SELECT a.name FROM a_author a, z_venue z WHERE a.vid = z.vid",
		)},
		{Queries: parseAll(t,
			"SELECT j.name FROM journal j",
			"SELECT m.title FROM m_paper m WHERE m.year = 2020",
		)},
		{Session: true, Count: 3, Decay: 0.25, Queries: parseAll(t,
			"SELECT p.title FROM publication p WHERE p.year > 2003",
			"SELECT z.name FROM z_venue z",
		)},
	}

	build := func() *Live {
		entries, err := sqlparse.ParseLog(base)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Build(entries, fragment.NoConstOp)
		if err != nil {
			t.Fatal(err)
		}
		return NewLive(g)
	}

	incremental := build()
	applyIncremental(t, incremental, ops)

	replayed := build()
	if err := replayed.Replay(ops); err != nil {
		t.Fatal(err)
	}

	assertSnapshotsBitIdentical(t, replayed.CurrentSnapshot(), incremental.CurrentSnapshot())

	// Parity must survive further live appends on both engines: the replayed
	// engine is a full peer, not a read-only reconstruction.
	more := parseAll(t, "SELECT b.name FROM b_conf b, journal j WHERE b.jid = j.jid")
	incremental.AddQueries(more, nil)
	replayed.AddQueries(more, nil)
	assertSnapshotsBitIdentical(t, replayed.CurrentSnapshot(), incremental.CurrentSnapshot())
}

// TestReplayEmptyAndErrors pins the edges: an empty replay republishes the
// base state unchanged, and an invalid session op surfaces its error
// without applying any operation of the call.
func TestReplayEmptyAndErrors(t *testing.T) {
	entries, err := sqlparse.ParseLog("SELECT j.name FROM journal j")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(entries, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLive(g)
	before := l.CurrentSnapshot()
	if err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	assertSnapshotsBitIdentical(t, l.CurrentSnapshot(), before)

	// A valid operation ahead of the invalid one must not be applied, nor
	// its new fragments interned.
	before = l.CurrentSnapshot()
	interned := before.Interner().Len()
	bad := []ReplayOp{
		{Queries: parseAll(t, "SELECT z.name FROM z_venue z")},
		{Session: true, Count: 1, Decay: 1.5, Queries: parseAll(t, "SELECT j.name FROM journal j")},
	}
	if err := l.Replay(bad); err == nil {
		t.Fatal("replay accepted an out-of-range session decay")
	}
	if l.CurrentSnapshot() != before || before.Interner().Len() != interned {
		t.Fatal("a failed replay published or interned part of its operations")
	}
}
