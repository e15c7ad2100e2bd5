package store

import (
	"testing"

	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
)

// roundTripLog has within-query co-occurrence (ne > 0) on pairs the
// session below crosses, so their session weight lands on top of an
// integer count: the case where co = float64(ne) + sess rounds.
const roundTripLog = `
3x: SELECT j.name FROM journal j
2x: SELECT p.title FROM publication p WHERE p.year > 2003
SELECT p.title FROM journal j, publication p WHERE j.name = 'TMC' AND p.jid = j.jid
`

func roundTripSession(t *testing.T) []*sqlparse.Query {
	t.Helper()
	srcs := []string{
		"SELECT p.title FROM publication p",
		"SELECT j.name FROM journal j",
		"SELECT j.name FROM journal j WHERE j.name = 'TMC'",
	}
	out := make([]*sqlparse.Query, len(srcs))
	for i, src := range srcs {
		q := sqlparse.MustParse(src)
		if err := q.Resolve(nil); err != nil {
			t.Fatal(err)
		}
		out[i] = q
	}
	return out
}

// TestSessionAppendsAfterRoundTripBitExact pins the store round trip as
// invisible to later appends. One live log is built from the log; a
// second boots from the encoded archive of the same state. Both take the
// same session appends with a non-dyadic decay on pairs that also
// co-occur within queries, and must stay bit-identical, session weights
// included. A v3 archive, which carries no session weights, is the
// counter-check that the scenario really exercises rounding: its derived
// weights (co − ne) make the same appends drift in the last bit.
func TestSessionAppendsAfterRoundTripBitExact(t *testing.T) {
	entries, err := sqlparse.ParseLog(roundTripLog)
	if err != nil {
		t.Fatal(err)
	}
	base, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	session := roundTripSession(t)
	mem := qfg.NewLive(base)
	if err := mem.AddSession(session, 2, 0.37); err != nil {
		t.Fatal(err)
	}
	boot := func(enc []byte) *qfg.Live {
		ar, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		return qfg.NewLive(ar.Snapshot)
	}
	snap := mem.CurrentSnapshot()
	current := boot(Encode("tiny", snap))
	legacy := boot(encodeFixedAt("tiny", snap, 0, 3))

	for i := 0; i < 9; i++ {
		for _, l := range []*qfg.Live{mem, current, legacy} {
			if err := l.AddSession(session, 2, 0.37); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := mem.CurrentSnapshot().Parts()
	got := current.CurrentSnapshot().Parts()
	if !partsEqual(got, want) {
		diff := 0
		for i := range want.Co {
			if i < len(got.Co) && got.Co[i] != want.Co[i] {
				diff++
			}
		}
		t.Fatalf("a live log booted from a v%d archive diverged from the in-memory log after session appends: %d of %d half-edges differ",
			Version, diff, len(want.Co))
	}
	if sameBits(legacy.CurrentSnapshot().Parts().Co, want.Co) {
		t.Fatal("test premise: appends onto a v3 archive's derived session weights should drift in the last bit")
	}
}
