package qfg

import (
	"testing"

	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

// TestReplayReset is the re-bootstrap gate: Reset must leave a Live in the
// exact state NewLive would publish — bit-identical snapshot,
// pinned interner IDs — and the reset engine must stay a full peer, so
// appends applied after the reset keep matching an engine that never
// diverged. This is the path a replication follower takes when its tail
// position has been compacted away and it falls back to a fresh snapshot.
func TestReplayReset(t *testing.T) {
	build := func() *Live {
		entries, err := sqlparse.ParseLog("SELECT j.name FROM journal j")
		if err != nil {
			t.Fatal(err)
		}
		g, err := Build(entries, fragment.NoConstOp)
		if err != nil {
			t.Fatal(err)
		}
		return NewLive(g)
	}

	primary := build()
	primary.AddQueries(parseAll(t,
		"SELECT z.name FROM z_venue z",
		"SELECT a.name FROM a_author a, z_venue z WHERE a.vid = z.vid",
	), []int{2, 1})

	// The follower drifted onto a different history; Reset discards it.
	follower := build()
	follower.AddQueries(parseAll(t, "SELECT m.title FROM m_paper m"), nil)

	follower.Reset(primary.CurrentSnapshot())
	assertSnapshotsBitIdentical(t, follower.CurrentSnapshot(), primary.CurrentSnapshot())

	// Identical appends after the reset must keep the engines identical,
	// interner ID assignment included.
	more := []ReplayOp{
		{Queries: parseAll(t, "SELECT p.title FROM publication p WHERE p.year > 2003")},
		{Session: true, Count: 2, Decay: 0.5, Queries: parseAll(t,
			"SELECT j.name FROM journal j",
			"SELECT b.name FROM b_conf b",
		)},
	}
	applyIncremental(t, primary, more)
	if err := follower.Replay(more); err != nil {
		t.Fatal(err)
	}
	assertSnapshotsBitIdentical(t, follower.CurrentSnapshot(), primary.CurrentSnapshot())
}
