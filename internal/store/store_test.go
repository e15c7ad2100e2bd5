package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"templar/internal/datasets"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
)

// buildSnapshot mines a dataset's full gold-SQL log into a compiled
// snapshot, with one synthetic session folded in so the archive carries
// fractional (blended) co-occurrence weights too.
func buildSnapshot(tb testing.TB, ds *datasets.Dataset) *qfg.Snapshot {
	tb.Helper()
	entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
	for _, task := range ds.Tasks {
		q, err := sqlparse.Parse(task.Gold)
		if err != nil {
			tb.Fatalf("%s: %v", task.ID, err)
		}
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	base, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		tb.Fatal(err)
	}
	live := qfg.NewLive(base)
	session := []*sqlparse.Query{entries[0].Query, entries[1].Query, entries[2].Query}
	if err := live.AddSession(session, 1, 0.5); err != nil {
		tb.Fatal(err)
	}
	return live.CurrentSnapshot()
}

// partsEqual compares two snapshots' arrays bit for bit (float64 weights,
// session weights included, by their IEEE-754 bits, not tolerance).
func partsEqual(a, b qfg.SnapshotParts) bool {
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

// TestRoundTripParityAllDatasets is the acceptance gate for the codec: on
// every bundled dataset, a packed-and-loaded snapshot must agree with the
// freshly built one on the interner table, every compiled array (weights
// bit for bit) and DiceID over every fragment ID pair.
func TestRoundTripParityAllDatasets(t *testing.T) {
	for _, ds := range datasets.All() {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			built := buildSnapshot(t, ds)
			ar, err := Decode(Encode(ds.Name, built))
			if err != nil {
				t.Fatal(err)
			}
			if ar.Dataset != ds.Name {
				t.Fatalf("dataset = %q, want %q", ar.Dataset, ds.Name)
			}
			loaded := ar.Snapshot
			if got, want := loaded.Interner().Fragments(), built.Interner().Fragments(); !reflect.DeepEqual(got, want) {
				t.Fatalf("interner tables diverged: %d vs %d fragments", len(got), len(want))
			}
			if !partsEqual(loaded.Parts(), built.Parts()) {
				t.Fatal("compiled arrays diverged after round trip")
			}
			if loaded.Queries() != built.Queries() || loaded.Vertices() != built.Vertices() ||
				loaded.Edges() != built.Edges() || loaded.Obscurity() != built.Obscurity() {
				t.Fatalf("stats diverged: loaded %d/%d/%d, built %d/%d/%d",
					loaded.Queries(), loaded.Vertices(), loaded.Edges(),
					built.Queries(), built.Vertices(), built.Edges())
			}
			n := uint32(built.Vertices())
			for a := uint32(0); a < n; a++ {
				for b := a; b < n; b++ {
					if got, want := loaded.DiceID(a, b), built.DiceID(a, b); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("DiceID(%d, %d) = %v after load, want %v", a, b, got, want)
					}
				}
			}
		})
	}
}

// smallSnapshot builds a tiny snapshot for corruption tests, where every
// byte of the archive gets exercised.
func smallSnapshot(tb testing.TB) *qfg.Snapshot {
	tb.Helper()
	entries, err := sqlparse.ParseLog(`
3x: SELECT j.name FROM journal j
2x: SELECT p.title FROM publication p WHERE p.year > 2003
SELECT p.title FROM journal j, publication p WHERE j.name = 'TMC' AND p.jid = j.jid
`)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// rechecksum fixes the CRC trailer after a deliberate header/payload edit,
// so the edit (not the checksum) is what the decoder trips on.
func rechecksum(data []byte) {
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

func TestDecodeBadMagic(t *testing.T) {
	enc := Encode("tiny", smallSnapshot(t))
	bad := append([]byte(nil), enc...)
	copy(bad, "NOTAQFG!")
	if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := Decode([]byte("SQL")); !errors.Is(err, ErrTruncated) {
		t.Fatalf("shorter than magic: err = %v, want ErrTruncated", err)
	}
}

func TestDecodeWrongVersion(t *testing.T) {
	enc := Encode("tiny", smallSnapshot(t))
	bad := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(bad[8:], 99)
	rechecksum(bad)
	var ve *UnsupportedVersionError
	_, err := Decode(bad)
	if !errors.As(err, &ve) || ve.Version != 99 {
		t.Fatalf("err = %v, want UnsupportedVersionError{99}", err)
	}
}

func TestWalSeqRoundTrip(t *testing.T) {
	snap := smallSnapshot(t)
	ar, err := Decode(EncodeAt("tiny", snap, 42))
	if err != nil {
		t.Fatal(err)
	}
	if ar.WalSeq != 42 {
		t.Fatalf("WalSeq = %d, want 42", ar.WalSeq)
	}
	if ar, err = Decode(Encode("tiny", snap)); err != nil || ar.WalSeq != 0 {
		t.Fatalf("plain Encode: WalSeq = %d err = %v, want 0", ar.WalSeq, err)
	}
	path := filepath.Join(t.TempDir(), Filename("tiny"))
	if err := WriteFileAt(path, "tiny", snap, 7); err != nil {
		t.Fatal(err)
	}
	if ar, err = ReadFile(path); err != nil || ar.WalSeq != 7 {
		t.Fatalf("WriteFileAt round trip: WalSeq = %d err = %v, want 7", ar.WalSeq, err)
	}
}

// TestDecodeV2Compat proves the current decoder still reads the varint v2
// format earlier builds wrote: a legacy-encoded archive must decode to the
// same snapshot, bit for bit, as the current encoding of the same state.
func TestDecodeV2Compat(t *testing.T) {
	snap := smallSnapshot(t)
	v2 := encodeLegacyAt("tiny", snap, 42, 2)
	ar, err := Decode(v2)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Dataset != "tiny" || ar.WalSeq != 42 {
		t.Fatalf("v2 archive decoded to dataset %q WalSeq %d", ar.Dataset, ar.WalSeq)
	}
	if !partsEqual(ar.Snapshot.Parts(), snap.Parts()) {
		t.Fatal("v2 archive diverged from the snapshot it was packed from")
	}
	if got, want := ar.Snapshot.Interner().Fragments(), snap.Interner().Fragments(); !reflect.DeepEqual(got, want) {
		t.Fatal("v2 interner table diverged")
	}
}

// TestDecodeV1Compat proves the current decoder still reads the v1 format:
// a byte-exact v1 archive is reconstructed from a legacy v2 one by stripping
// the WAL-sequence field and rewriting the version, and must decode to the
// same snapshot with WalSeq 0.
func TestDecodeV1Compat(t *testing.T) {
	snap := smallSnapshot(t)
	v2 := encodeLegacyAt("tiny", snap, 42, 2)

	// Find the walSeq field: it follows the dataset name, obscurity and
	// query-count fields of the payload.
	off := headerSize
	nameLen, n := binary.Uvarint(v2[off:])
	off += n + int(nameLen)
	for i := 0; i < 2; i++ { // obscurity, query count
		_, n = binary.Uvarint(v2[off:])
		off += n
	}
	_, walSeqLen := binary.Uvarint(v2[off:])

	v1 := append([]byte(nil), v2[:off]...)
	v1 = append(v1, v2[off+walSeqLen:]...)
	binary.LittleEndian.PutUint32(v1[8:], 1)
	binary.LittleEndian.PutUint64(v1[12:], uint64(len(v1)))
	rechecksum(v1)

	ar, err := Decode(v1)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Dataset != "tiny" || ar.WalSeq != 0 {
		t.Fatalf("v1 archive decoded to dataset %q WalSeq %d", ar.Dataset, ar.WalSeq)
	}
	if !partsEqual(ar.Snapshot.Parts(), snap.Parts()) {
		t.Fatal("v1 archive diverged from the snapshot it was packed from")
	}
}

func TestDecodeChecksumMismatch(t *testing.T) {
	enc := Encode("tiny", smallSnapshot(t))
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 0x40
	if _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

// TestDecodeTruncated cuts the archive at every length: each prefix must
// return ErrTruncated (or ErrBadMagic for sub-magic stubs) and never panic.
func TestDecodeTruncated(t *testing.T) {
	enc := Encode("tiny", smallSnapshot(t))
	for n := 0; n < len(enc); n++ {
		_, err := Decode(enc[:n])
		if err == nil {
			t.Fatalf("decoding %d of %d bytes succeeded", n, len(enc))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("decoding %d of %d bytes: err = %v, want ErrTruncated", n, len(enc), err)
		}
	}
	if _, err := Decode(append(append([]byte(nil), enc...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeMutatedPayload flips one bit at every body offset with the
// checksum repaired, so the structural validation (not the CRC) has to
// catch whatever the flip broke. Every outcome must be a typed error or a
// snapshot that still passes its own invariants — never a panic.
func TestDecodeMutatedPayload(t *testing.T) {
	enc := Encode("tiny", smallSnapshot(t))
	for off := len(magic); off < len(enc)-4; off++ {
		for _, bit := range []byte{0x01, 0x80} {
			bad := append([]byte(nil), enc...)
			bad[off] ^= bit
			rechecksum(bad)
			ar, err := Decode(bad)
			if err == nil && ar.Snapshot == nil {
				t.Fatalf("offset %d: nil snapshot without error", off)
			}
			if err != nil {
				var ve *UnsupportedVersionError
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) &&
					!errors.Is(err, ErrChecksum) && !errors.As(err, &ve) {
					t.Fatalf("offset %d bit %#x: untyped error %v", off, bit, err)
				}
			}
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, Filename("MAS"))
	if got, want := filepath.Base(path), "mas.qfg"; got != want {
		t.Fatalf("Filename = %q, want %q", got, want)
	}
	snap := smallSnapshot(t)
	if err := WriteFile(path, "tiny", snap); err != nil {
		t.Fatal(err)
	}
	// Overwrite must be atomic-replace, not append.
	if err := WriteFile(path, "tiny", snap); err != nil {
		t.Fatal(err)
	}
	ar, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Dataset != "tiny" || !partsEqual(ar.Snapshot.Parts(), snap.Parts()) {
		t.Fatal("file round trip diverged")
	}
	// CreateTemp's private 0600 must not survive the rename: a service
	// running as a different user than the packer has to read the store.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Fatalf("archive mode = %v, want 0644", st.Mode().Perm())
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Fatalf("store dir holds %d files, want 1 (no temp litter)", len(left))
	}
	if _, err := ReadFile(filepath.Join(dir, "absent.qfg")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}
}

func TestReadWriter(t *testing.T) {
	snap := smallSnapshot(t)
	var buf bytes.Buffer
	if err := Write(&buf, "tiny", snap); err != nil {
		t.Fatal(err)
	}
	ar, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Dataset != "tiny" || !partsEqual(ar.Snapshot.Parts(), snap.Parts()) {
		t.Fatal("io round trip diverged")
	}
}

// goldLog renders a dataset's gold SQL as one raw log text, the input the
// re-mining cold-start path starts from.
func goldLog(ds *datasets.Dataset) string {
	var b strings.Builder
	for _, task := range ds.Tasks {
		b.WriteString(task.Gold)
		b.WriteByte('\n')
	}
	return b.String()
}

// BenchmarkColdStart compares the two ways a serving process can reach a
// ready snapshot: re-mining the raw SQL log (parse + QFG build + compile)
// versus one store decode of the packed archive. The acceptance bar for
// the store path is ≥ 5× faster; see docs/ARCHITECTURE.md for recorded
// numbers (~20-40× in practice).
func BenchmarkColdStart(b *testing.B) {
	for _, ds := range datasets.All() {
		ds := ds
		logText := goldLog(ds)
		packed := Encode(ds.Name, buildSnapshot(b, ds))
		b.Run("remine/"+ds.Name, func(b *testing.B) {
			b.SetBytes(int64(len(logText)))
			for i := 0; i < b.N; i++ {
				entries, err := sqlparse.ParseLog(logText)
				if err != nil {
					b.Fatal(err)
				}
				s, err := qfg.Build(entries, fragment.NoConstOp)
				if err != nil {
					b.Fatal(err)
				}
				if s.Vertices() == 0 {
					b.Fatal("empty snapshot")
				}
			}
		})
		b.Run("store/"+ds.Name, func(b *testing.B) {
			b.SetBytes(int64(len(packed)))
			for i := 0; i < b.N; i++ {
				ar, err := Decode(packed)
				if err != nil {
					b.Fatal(err)
				}
				if ar.Snapshot.Vertices() == 0 {
					b.Fatal("empty snapshot")
				}
			}
		})
	}
}
