package store

import (
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
)

// sessionSnapshot is smallSnapshot's log plus one session, so every
// encoding of it carries fractional session weights.
func sessionSnapshot(tb testing.TB) *qfg.Snapshot {
	tb.Helper()
	entries, err := sqlparse.ParseLog(roundTripLog)
	if err != nil {
		tb.Fatal(err)
	}
	base, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		tb.Fatal(err)
	}
	live := qfg.NewLive(base)
	session := []*sqlparse.Query{entries[0].Query, entries[2].Query}
	if err := live.AddSession(session, 1, 0.37); err != nil {
		tb.Fatal(err)
	}
	return live.CurrentSnapshot()
}

// TestDecodeV3Compat proves the decoder still reads v3 archives, which
// carry no session weights: the snapshot derives them as co − ne and
// serves the same blended weights and Dice as the state it was packed
// from.
func TestDecodeV3Compat(t *testing.T) {
	snap := sessionSnapshot(t)
	ar, err := Decode(encodeFixedAt("tiny", snap, 42, 3))
	if err != nil {
		t.Fatal(err)
	}
	if ar.Dataset != "tiny" || ar.WalSeq != 42 {
		t.Fatalf("v3 archive decoded to dataset %q WalSeq %d", ar.Dataset, ar.WalSeq)
	}
	got, want := ar.Snapshot.Parts(), snap.Parts()
	if !reflect.DeepEqual(got.NV, want.NV) || !reflect.DeepEqual(got.ColID, want.ColID) ||
		!reflect.DeepEqual(got.NECount, want.NECount) || !sameBits(got.Co, want.Co) {
		t.Fatal("v3 archive diverged from the snapshot it was packed from")
	}
	for i, co := range got.Co {
		if d := co - float64(got.NECount[i]); got.Sess[i] != d {
			t.Fatalf("half-edge %d: derived session weight %v, want co − ne = %v", i, got.Sess[i], d)
		}
	}
}

// TestDecodeCopyPathParity decodes v3 and v4 archives from a misaligned
// buffer, which forces the copying decode, and requires the same arrays
// as the aliasing decode of an aligned copy.
func TestDecodeCopyPathParity(t *testing.T) {
	snap := sessionSnapshot(t)
	for _, enc := range [][]byte{encodeFixedAt("tiny", snap, 0, 3), Encode("tiny", snap)} {
		shifted := make([]byte, len(enc)+1)[1:]
		copy(shifted, enc)
		if canAlias(shifted) || !canAlias(enc) {
			t.Skip("host cannot tell the aliasing and copying decodes apart")
		}
		copied, aliased, err := decodeAny(shifted)
		if err != nil || aliased {
			t.Fatalf("misaligned decode: aliased=%v err=%v", aliased, err)
		}
		mapped, aliased, err := decodeAny(enc)
		if err != nil || !aliased {
			t.Fatalf("aligned decode: aliased=%v err=%v", aliased, err)
		}
		if !partsEqual(copied.Snapshot.Parts(), mapped.Snapshot.Parts()) {
			t.Fatal("copying and aliasing decodes disagree")
		}
	}
}

// FuzzDecode holds Decode to its contract on arbitrary bytes: a typed
// error or an archive whose snapshot passed qfg.NewSnapshotFromParts —
// never a panic, and never an allocation sized by a declared length
// rather than by the input. The harness repairs the declared size and
// the CRC trailer of anything that starts with the magic, so mutations
// reach the section and snapshot checks instead of dying at the
// checksum. Seeds are v1–v4 encodings of a snapshot with session weights.
func FuzzDecode(f *testing.F) {
	snap := sessionSnapshot(f)
	f.Add(encodeLegacyAt("tiny", snap, 0, 1))
	f.Add(encodeLegacyAt("tiny", snap, 7, 2))
	f.Add(encodeFixedAt("tiny", snap, 7, 3))
	f.Add(Encode("tiny", snap))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= headerSize+trailerSize && string(data[:len(magic)]) == magic {
			binary.LittleEndian.PutUint64(data[len(magic)+4:], uint64(len(data)))
			rechecksum(data)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ar, err := Decode(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 && alloc > 1024*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			var ve *UnsupportedVersionError
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrBadMagic) && !errors.As(err, &ve) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if ar.Snapshot == nil {
			t.Fatal("nil snapshot without error")
		}
		// A decoded archive is a valid one: it re-encodes and decodes to
		// the same arrays.
		again, err := Decode(Encode(ar.Dataset, ar.Snapshot))
		if err != nil {
			t.Fatalf("re-encoding a decoded archive: %v", err)
		}
		if !partsEqual(again.Snapshot.Parts(), ar.Snapshot.Parts()) {
			t.Fatal("decoded archive changed across a re-encode")
		}
	})
}
