package qfg

import (
	"math"
	"reflect"
	"testing"

	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

// partsSnapshot builds a small snapshot carrying both within-query and
// session evidence, so the round-trip exercises integer counts and blended
// floats.
func partsSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	entries, err := sqlparse.ParseLog(`
4x: SELECT j.name FROM journal j
2x: SELECT p.title FROM publication p WHERE p.year > 2003
SELECT p.title FROM journal j, publication p WHERE j.name = 'TMC' AND p.jid = j.jid
`)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(entries, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	live := NewLive(base)
	if err := live.AddSession([]*sqlparse.Query{entries[0].Query, entries[2].Query}, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	return live.CurrentSnapshot()
}

// copyParts deep-copies parts, so a test can edit them in place.
func copyParts(p SnapshotParts) SnapshotParts {
	p.NV = append([]int(nil), p.NV...)
	p.RowStart = append([]uint32(nil), p.RowStart...)
	p.ColID = append([]uint32(nil), p.ColID...)
	p.Co = append([]float64(nil), p.Co...)
	p.NECount = append([]int(nil), p.NECount...)
	if p.Sess != nil {
		p.Sess = append([]float64(nil), p.Sess...)
	}
	return p
}

func samePartsBits(a, b SnapshotParts) bool {
	if a.Obscurity != b.Obscurity || a.Queries != b.Queries {
		return false
	}
	if !reflect.DeepEqual(a.NV, b.NV) || !reflect.DeepEqual(a.RowStart, b.RowStart) ||
		!reflect.DeepEqual(a.ColID, b.ColID) || !reflect.DeepEqual(a.NECount, b.NECount) {
		return false
	}
	return sameBits(a.Co, b.Co) && sameBits(a.Sess, b.Sess)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestSnapshotPartsRoundTrip(t *testing.T) {
	snap := partsSnapshot(t)
	re, err := NewSnapshotFromParts(snap.Interner(), snap.Parts())
	if err != nil {
		t.Fatal(err)
	}
	if !samePartsBits(re.Parts(), snap.Parts()) {
		t.Fatal("parts changed across NewSnapshotFromParts")
	}
	if re.Edges() != snap.Edges() || re.Vertices() != snap.Vertices() || re.Queries() != snap.Queries() {
		t.Fatalf("stats diverged: %d/%d/%d vs %d/%d/%d",
			re.Edges(), re.Vertices(), re.Queries(), snap.Edges(), snap.Vertices(), snap.Queries())
	}
	n := uint32(snap.Vertices())
	for a := uint32(0); a < n; a++ {
		for b := a; b < n; b++ {
			if got, want := re.DiceID(a, b), snap.DiceID(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DiceID(%d, %d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestNewSnapshotFromPartsValidation(t *testing.T) {
	snap := partsSnapshot(t)
	good := snap.Parts()
	in := snap.Interner()

	mutate := func(name string, f func(p *SnapshotParts)) {
		p := copyParts(good)
		f(&p)
		if _, err := NewSnapshotFromParts(in, p); err == nil {
			t.Errorf("%s: invalid parts accepted", name)
		}
	}

	if _, err := NewSnapshotFromParts(nil, good); err == nil {
		t.Error("nil interner accepted")
	}
	mutate("short row index", func(p *SnapshotParts) { p.RowStart = p.RowStart[:len(p.RowStart)-1] })
	mutate("row index not starting at 0", func(p *SnapshotParts) { p.RowStart[0] = 1 })
	mutate("row index overrunning adjacency", func(p *SnapshotParts) { p.RowStart[len(p.RowStart)-1]++ })
	mutate("decreasing row index", func(p *SnapshotParts) { p.RowStart[1] = p.RowStart[len(p.RowStart)-1] + 1 })
	mutate("neighbor out of range", func(p *SnapshotParts) { p.ColID[0] = uint32(len(p.NV)) })
	mutate("unsorted row", func(p *SnapshotParts) {
		// Give the first fragment with ≥ 2 neighbors a duplicate neighbor.
		for id := 0; id+1 < len(p.RowStart); id++ {
			if p.RowStart[id+1]-p.RowStart[id] >= 2 {
				p.ColID[p.RowStart[id]+1] = p.ColID[p.RowStart[id]]
				return
			}
		}
		t.Fatal("no fragment with two neighbors")
	})
	mutate("negative nv", func(p *SnapshotParts) { p.NV[0] = -1 })
	mutate("negative ne", func(p *SnapshotParts) { p.NECount[0] = -1 })
	mutate("negative queries", func(p *SnapshotParts) { p.Queries = -1 })
	mutate("adjacency arrays disagreeing", func(p *SnapshotParts) { p.Co = p.Co[:len(p.Co)-1] })
	mutate("more vertices than interned fragments", func(p *SnapshotParts) {
		p.NV = append(p.NV, 1)
		p.RowStart = append(p.RowStart, p.RowStart[len(p.RowStart)-1])
	})
	mutate("session array disagreeing", func(p *SnapshotParts) { p.Sess = p.Sess[:len(p.Sess)-1] })
}

// TestLiveFromPartsKeepsFolding is the in-package half of the store round
// trip: a snapshot reassembled from its parts, published by NewLive, must
// fold later session appends bit for bit like the snapshot it came from
// (session weights included). Reassembled from parts without Sess — what a
// v1–v3 archive carries — it still serves the same reads.
func TestLiveFromPartsKeepsFolding(t *testing.T) {
	snap := partsSnapshot(t)
	re, err := NewSnapshotFromParts(snap.Interner(), copyParts(snap.Parts()))
	if err != nil {
		t.Fatal(err)
	}
	orig, loaded := NewLive(snap), NewLive(re)
	session := []*sqlparse.Query{
		sqlparse.MustParse("SELECT j.name FROM journal j WHERE j.name = 'TMC'"),
		sqlparse.MustParse("SELECT p.title FROM journal j, publication p WHERE p.jid = j.jid"),
	}
	for _, q := range session {
		if err := q.Resolve(nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 9; i++ {
		for _, l := range []*Live{orig, loaded} {
			if err := l.AddSession(session, 1, 0.37); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !samePartsBits(loaded.CurrentSnapshot().Parts(), orig.CurrentSnapshot().Parts()) {
		t.Fatal("a live log over reassembled parts diverged from the original after session appends")
	}

	legacy := copyParts(snap.Parts())
	legacy.Sess = nil
	old, err := NewSnapshotFromParts(snap.Interner(), legacy)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(old.Parts().Co, snap.Parts().Co) {
		t.Fatal("derived-session snapshot changed the blended weights")
	}
	n := uint32(snap.Vertices())
	for a := uint32(0); a < n; a++ {
		for b := a; b < n; b++ {
			if got, want := old.DiceID(a, b), snap.DiceID(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DiceID(%d, %d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestNewLiveFromSnapshot checks the store-loaded serving path: the first
// publication is the loaded snapshot itself, appends keep working, and
// fragment IDs stay stable across the republish.
func TestNewLiveFromSnapshot(t *testing.T) {
	snap := partsSnapshot(t)
	live := NewLiveFromSnapshot(snap)
	if live.CurrentSnapshot() != snap {
		t.Fatal("first publication is not the loaded snapshot")
	}
	q, err := sqlparse.Parse("SELECT j.name FROM journal j WHERE j.name = 'TKDE'")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Resolve(nil); err != nil {
		t.Fatal(err)
	}
	live.AddQuery(q, 2)
	after := live.CurrentSnapshot()
	if after.Queries() != snap.Queries()+2 {
		t.Fatalf("queries = %d, want %d", after.Queries(), snap.Queries()+2)
	}
	if after.Interner() != snap.Interner() {
		t.Fatal("republish switched interners")
	}
	journal := fragment.Relation("journal")
	id := snap.Lookup(journal)
	if id == fragment.NoID {
		t.Fatal("journal missing from loaded snapshot")
	}
	if after.Lookup(journal) != id {
		t.Fatalf("fragment ID moved across republish: %d vs %d", after.Lookup(journal), id)
	}
	if got, want := after.OccurrencesID(id), snap.OccurrencesID(id)+2; got != want {
		t.Fatalf("nv(journal) = %d after append, want %d", got, want)
	}
}

// TestSpliceToleratesAsymmetricParts backs the unchecked mirror invariant:
// a snapshot whose half-edges do not mirror each other (a corrupt archive)
// still loads, and appends over its fragments stay in bounds.
func TestSpliceToleratesAsymmetricParts(t *testing.T) {
	snap := partsSnapshot(t)
	p := copyParts(snap.Parts())
	// Move one of journal's neighbors one ID up where the row stays sorted:
	// neither half-edge of that edge has its mirror any more, and the
	// appends below rewrite journal's row.
	a := snap.Lookup(fragment.Relation("journal"))
	moved := false
	for k := p.RowStart[a+1]; k > p.RowStart[a] && !moved; k-- {
		next := uint32(len(p.NV))
		if k < p.RowStart[a+1] {
			next = p.ColID[k]
		}
		if c := p.ColID[k-1] + 1; c < next && c != a {
			p.ColID[k-1], moved = c, true
		}
	}
	if !moved {
		t.Fatal("no neighbor of journal to move")
	}
	broken, err := NewSnapshotFromParts(snap.Interner(), p)
	if err != nil {
		t.Fatal(err)
	}
	live := NewLive(broken)
	var qs []*sqlparse.Query
	for _, f := range snap.Interner().Fragments() {
		if f.Context == fragment.From {
			qs = append(qs, sqlparse.MustParse("SELECT * FROM "+f.Expr))
		}
	}
	if err := live.AddSession(qs, 2, 0.37); err != nil {
		t.Fatal(err)
	}
	live.AddQueries(qs, nil)
	if got := live.CurrentSnapshot().Queries(); got != snap.Queries()+3*len(qs) {
		t.Fatalf("queries = %d, want %d", got, snap.Queries()+3*len(qs))
	}
}
