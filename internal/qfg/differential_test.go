package qfg_test

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"templar/internal/datasets"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
	"templar/internal/store"
	"templar/internal/xrand"
)

// lifecycleOp is one append of a lifecycle sequence, kept as SQL text so
// every path parses its own queries.
type lifecycleOp struct {
	session bool
	sql     []string
	counts  []int // batch multiplicities; nil = 1 each
	count   int   // session multiplicity
	decay   float64
}

// lifecycle is a base log plus the appends that follow it.
type lifecycle struct {
	ob         fragment.Obscurity
	base       []string
	baseCounts []int
	ops        []lifecycleOp
}

func parseResolved(tb testing.TB, src string) *sqlparse.Query {
	tb.Helper()
	q, err := sqlparse.Parse(src)
	if err != nil {
		tb.Fatalf("%s: %v", src, err)
	}
	if err := q.Resolve(nil); err != nil {
		tb.Fatalf("%s: %v", src, err)
	}
	return q
}

// baseLog parses the base log afresh (Build resolves it in place).
func (lc *lifecycle) baseLog(tb testing.TB) []sqlparse.LogEntry {
	tb.Helper()
	entries := make([]sqlparse.LogEntry, len(lc.base))
	for i, src := range lc.base {
		q, err := sqlparse.Parse(src)
		if err != nil {
			tb.Fatalf("%s: %v", src, err)
		}
		entries[i] = sqlparse.LogEntry{Query: q, Count: lc.baseCounts[i]}
	}
	return entries
}

func (lc *lifecycle) replayOps(tb testing.TB, ops []lifecycleOp) []qfg.ReplayOp {
	tb.Helper()
	out := make([]qfg.ReplayOp, len(ops))
	for i, op := range ops {
		qs := make([]*sqlparse.Query, len(op.sql))
		for j, src := range op.sql {
			qs[j] = parseResolved(tb, src)
		}
		out[i] = qfg.ReplayOp{Session: op.session, Queries: qs, Counts: op.counts, Count: op.count, Decay: op.decay}
	}
	return out
}

func (lc *lifecycle) sessions() bool {
	for _, op := range lc.ops {
		if op.session {
			return true
		}
	}
	return false
}

// newLive builds the base log into a fresh Live.
func (lc *lifecycle) newLive(tb testing.TB) *qfg.Live {
	tb.Helper()
	s, err := qfg.Build(lc.baseLog(tb), lc.ob)
	if err != nil {
		tb.Fatal(err)
	}
	return qfg.NewLive(s)
}

// applyEach folds ops one AddQueries/AddSession call (one publish) at a
// time, as the serving layer does.
func applyEach(tb testing.TB, l *qfg.Live, ops []qfg.ReplayOp) {
	tb.Helper()
	for _, op := range ops {
		if !op.Session {
			l.AddQueries(op.Queries, op.Counts)
		} else if err := l.AddSession(op.Queries, op.Count, op.Decay); err != nil {
			tb.Fatal(err)
		}
	}
}

// randomLifecycle draws a base log and an append sequence from a working
// set of a dozen gold queries, so fragments recur and sessions cross pairs
// that also co-occur within queries (ne > 0). Every third seed is
// query-only.
func randomLifecycle(seed uint64, pool []string) *lifecycle {
	r := xrand.New(seed)
	levels := fragment.Levels()
	lc := &lifecycle{ob: levels[int(seed)%len(levels)]}
	work := make([]string, 12)
	for i := range work {
		work[i] = pool[r.Intn(len(pool))]
	}
	pick := func(lo, hi int) []string {
		out := make([]string, r.RangeInt(lo, hi))
		for i := range out {
			out[i] = work[r.Intn(len(work))]
		}
		return out
	}
	lc.base = pick(0, 10)
	for range lc.base {
		lc.baseCounts = append(lc.baseCounts, r.RangeInt(1, 3))
	}
	for n := r.RangeInt(1, 20); len(lc.ops) < n; {
		if seed%3 != 0 && r.Intn(3) == 0 {
			// Fractional, mostly non-dyadic decays in (0, 1].
			decays := []float64{0.37, 0.5, 1.0 / 3, 0.81, 1, 1 - r.Float01()}
			lc.ops = append(lc.ops, lifecycleOp{session: true, sql: pick(2, 4),
				count: r.RangeInt(1, 3), decay: decays[r.Intn(len(decays))]})
			continue
		}
		op := lifecycleOp{sql: pick(1, 3)}
		if r.Intn(2) == 0 {
			for range op.sql {
				op.counts = append(op.counts, r.RangeInt(-1, 3))
			}
		}
		lc.ops = append(lc.ops, op)
	}
	return lc
}

// handWrittenLifecycle is TestReplayMatchesIncremental's sequence: new
// fragments arrive in anti-sorted order across operations.
func handWrittenLifecycle() *lifecycle {
	return &lifecycle{
		ob:         fragment.NoConstOp,
		base:       []string{"SELECT j.name FROM journal j", "SELECT p.title FROM publication p WHERE p.year > 2003"},
		baseCounts: []int{3, 1},
		ops: []lifecycleOp{
			{sql: []string{"SELECT z.name FROM z_venue z"}, counts: []int{2}},
			{session: true, count: 1, decay: 0.5, sql: []string{
				"SELECT a.name FROM a_author a",
				"SELECT a.name FROM a_author a, z_venue z WHERE a.vid = z.vid",
			}},
			{sql: []string{"SELECT j.name FROM journal j", "SELECT m.title FROM m_paper m WHERE m.year = 2020"}},
			{session: true, count: 3, decay: 0.25, sql: []string{
				"SELECT p.title FROM publication p WHERE p.year > 2003",
				"SELECT z.name FROM z_venue z",
			}},
		},
	}
}

// TestLifecycleDifferential runs seeded append sequences — query batches
// and sessions with fractional decays — four ways and requires them to
// agree: one publish per operation, one Replay of all of them, a store
// round trip through Open (mmap) partway followed by the remaining
// appends, and the map-backed reference MapGraph. The first three must
// encode to identical bytes (interner order, every array, session weights
// bit for bit); the reference must agree with them fragment by fragment.
// Query-only sequences also match a fresh Build of the concatenated log,
// compared by fragment since one sorted pass assigns different IDs.
func TestLifecycleDifferential(t *testing.T) {
	var pool []string
	for _, task := range datasets.MAS().Tasks {
		pool = append(pool, task.Gold)
	}
	cases := []*lifecycle{handWrittenLifecycle()}
	for seed := uint64(1); seed <= 60; seed++ {
		cases = append(cases, randomLifecycle(seed, pool))
	}
	crossed := 0 // session-weighted edges that also have ne > 0
	for i, lc := range cases {
		inc := lc.newLive(t)
		applyEach(t, inc, lc.replayOps(t, lc.ops))
		want := store.Encode("x", inc.CurrentSnapshot())

		rep := lc.newLive(t)
		if err := rep.Replay(lc.replayOps(t, lc.ops)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(store.Encode("x", rep.CurrentSnapshot()), want) {
			t.Fatalf("case %d: Replay diverged from one publish per operation", i)
		}

		k := i * 7 % (len(lc.ops) + 1)
		rt := lc.newLive(t)
		applyEach(t, rt, lc.replayOps(t, lc.ops[:k]))
		path := filepath.Join(t.TempDir(), "x.qfg")
		if err := store.WriteFile(path, "x", rt.CurrentSnapshot()); err != nil {
			t.Fatal(err)
		}
		m, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Mmapped() {
			t.Fatal("Open fell back to the copying path")
		}
		loaded := qfg.NewLive(m.Snapshot)
		applyEach(t, loaded, lc.replayOps(t, lc.ops[k:]))
		got := store.Encode("x", loaded.CurrentSnapshot())
		m.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: a store round trip after %d of %d operations diverged", i, k, len(lc.ops))
		}

		s := inc.CurrentSnapshot()
		ref, err := qfg.BuildMapGraph(lc.baseLog(t), lc.ob)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range lc.replayOps(t, lc.ops) {
			if op.Session {
				ref.AddSession(op.Queries, op.Count, op.Decay)
				continue
			}
			for j, q := range op.Queries {
				if op.Counts == nil {
					ref.AddQuery(q, 1)
				} else {
					ref.AddQuery(q, op.Counts[j])
				}
			}
		}
		if s.Queries() != ref.Queries() || s.Vertices() != ref.Vertices() || s.Edges() != ref.Edges() {
			t.Fatalf("case %d: shape (%d, %d, %d), reference (%d, %d, %d)", i,
				s.Queries(), s.Vertices(), s.Edges(), ref.Queries(), ref.Vertices(), ref.Edges())
		}
		frags := append(ref.Fragments(), fragment.Relation("never_logged_relation"))
		for x, a := range frags {
			if s.Occurrences(a) != ref.Occurrences(a) {
				t.Fatalf("case %d: nv(%v) = %d, reference %d", i, a, s.Occurrences(a), ref.Occurrences(a))
			}
			for _, b := range frags[x:] {
				if got, want := s.CoOccurrences(a, b), ref.CoOccurrences(a, b); got != want {
					t.Fatalf("case %d: ne(%v, %v) = %d, reference %d", i, a, b, got, want)
				}
				if got, want := s.SessionCoOccurrence(a, b), ref.SessionCoOccurrence(a, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("case %d: sess(%v, %v) = %v, reference %v", i, a, b, got, want)
				}
				if got, want := s.Dice(a, b), ref.Dice(a, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("case %d: Dice(%v, %v) = %v, reference %v", i, a, b, got, want)
				}
				if a != b && s.CoOccurrences(a, b) > 0 && s.SessionCoOccurrence(a, b) > 0 {
					crossed++
				}
			}
		}

		if !lc.sessions() {
			entries := lc.baseLog(t)
			for _, op := range lc.ops {
				for j, src := range op.sql {
					c := 1
					if op.counts != nil {
						c = op.counts[j]
					}
					entries = append(entries, sqlparse.LogEntry{Query: sqlparse.MustParse(src), Count: c})
				}
			}
			fresh, err := qfg.Build(entries, lc.ob)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Queries() != s.Queries() || fresh.Vertices() != s.Vertices() || fresh.Edges() != s.Edges() {
				t.Fatalf("case %d: a fresh Build has shape (%d, %d, %d), appends (%d, %d, %d)", i,
					fresh.Queries(), fresh.Vertices(), fresh.Edges(), s.Queries(), s.Vertices(), s.Edges())
			}
			for x, a := range frags {
				if fresh.Occurrences(a) != s.Occurrences(a) {
					t.Fatalf("case %d: fresh Build nv(%v) = %d, appends %d", i, a, fresh.Occurrences(a), s.Occurrences(a))
				}
				for _, b := range frags[x:] {
					if fresh.CoOccurrences(a, b) != s.CoOccurrences(a, b) ||
						math.Float64bits(fresh.Dice(a, b)) != math.Float64bits(s.Dice(a, b)) {
						t.Fatalf("case %d: fresh Build and appends disagree on (%v, %v)", i, a, b)
					}
				}
			}
		}
	}
	if crossed == 0 {
		t.Fatal("no sequence put session weight on a pair with ne > 0")
	}
}
