package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"templar/internal/fragment"
	"templar/internal/qfg"
)

// Every format version shares the same 20-byte generic header and CRC
// trailer (all multi-byte integers little-endian):
//
//	offset  size  field
//	0       8     magic "TQFGSNAP"
//	8       4     format version (uint32)
//	12      8     total file size in bytes, trailer included (uint64)
//	20      …     version-specific payload
//	end−4   4     CRC-32C (Castagnoli) over everything before it
//
// The v1/v2 payload is varint-packed ("uv" is an unsigned varint as in
// encoding/binary):
//
//	uv len + bytes   dataset name (UTF-8)
//	uv               obscurity level
//	uv               total logged queries
//	uv               [v2 only] WAL sequence the snapshot covers
//	                 (0 = no write-ahead log)
//	uv F             interner table size, then F times:
//	  uv             fragment clause context
//	  uv len + bytes fragment expression
//	uv V             snapshot vertex count (V ≤ F), then
//	  V × uv         nv occurrence counts
//	  (V+1) × uv     CSR row index
//	  H × uv         neighbor IDs (H = rowStart[V])
//	  H × 8          blended co-occurrence weights
//	                 (float64 bits, preserved exactly)
//	  H × uv         raw integer co-occurrence counts
//
// The v3 and v4 payloads are a fixed 8-byte-aligned section layout designed
// for zero-copy use straight out of an mmap'd file — see v3.go for the
// exact table. Decode reads every version; Encode writes v4.
//
// The declared-size field makes truncation detectable as such (ErrTruncated)
// instead of surfacing as a checksum mismatch; co-occurrence weights travel
// as raw IEEE-754 bits so a loaded snapshot scores bit-identically.
//
// Version history: v1 had no WAL sequence field; v2 added it so a snapshot
// names the exact write-ahead-log position it covers and boot replay becomes
// a filter (apply records with seq > WalSeq); v3 (current) switches the
// payload from varint packing to fixed-width aligned sections so the CSR
// arrays and interned strings can be used in place, without per-array
// allocation and copying (see Open); v4 (current) adds the per-half-edge
// session weights as their own section, so a loaded snapshot keeps folding
// session appends bit for bit (v1–v3 snapshots derive them as co − ne,
// exact up to the last bit). v1 files carry WalSeq 0.
const (
	magic = "TQFGSNAP"
	// Version is the current format version written by Encode.
	Version = 4
	// minVersion is the oldest format version Decode still reads.
	minVersion = 1

	headerSize  = len(magic) + 4 + 8
	trailerSize = 4
)

// Typed failure modes of Decode. A reader dispatching on them can tell a
// foreign file (ErrBadMagic) from a short read (ErrTruncated), a bit flip
// (ErrChecksum), a format from the future (*UnsupportedVersionError) and a
// structurally invalid payload (ErrCorrupt).
var (
	ErrBadMagic  = errors.New("store: not a packed QFG snapshot (bad magic)")
	ErrTruncated = errors.New("store: truncated snapshot file")
	ErrChecksum  = errors.New("store: snapshot checksum mismatch")
	ErrCorrupt   = errors.New("store: corrupt snapshot payload")
)

// UnsupportedVersionError reports a well-formed header whose format version
// this build cannot read.
type UnsupportedVersionError struct {
	Version uint32
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("store: unsupported snapshot format version %d (this build reads ≤ %d)", e.Version, Version)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Archive is one decoded snapshot file: the dataset it was packed from and
// the compiled QFG snapshot, ready to serve (its interner is rebuilt from
// the embedded fragment table).
type Archive struct {
	Dataset  string
	Snapshot *qfg.Snapshot
	// WalSeq is the write-ahead-log sequence number this snapshot covers:
	// boot replay applies exactly the WAL records with seq > WalSeq. Zero
	// for v1 files and for snapshots packed without a WAL.
	WalSeq uint64
}

// Filename is the conventional file name for a dataset's packed snapshot
// inside a store directory ("MAS" → "mas.qfg").
func Filename(dataset string) string {
	return strings.ToLower(dataset) + ".qfg"
}

// Encode packs a snapshot into the current binary format with no WAL
// coverage (WalSeq 0).
func Encode(dataset string, snap *qfg.Snapshot) []byte {
	return EncodeAt(dataset, snap, 0)
}

// EncodeAt packs a snapshot that covers the write-ahead log up to and
// including sequence walSeq.
func EncodeAt(dataset string, snap *qfg.Snapshot, walSeq uint64) []byte {
	return encodeFixedAt(dataset, snap, walSeq, Version)
}

// encodeLegacyAt writes the varint-packed v1/v2 payload. Encode no longer
// emits it, but the compat tests keep proving Decode reads archives written
// by earlier builds, so the writer side stays exercisable.
func encodeLegacyAt(dataset string, snap *qfg.Snapshot, walSeq uint64, version uint32) []byte {
	parts := snap.Parts()
	frags := snap.Interner().Fragments()

	buf := make([]byte, 0, 1<<16)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	sizeAt := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // total size, patched below

	buf = appendString(buf, dataset)
	buf = binary.AppendUvarint(buf, uint64(parts.Obscurity))
	buf = binary.AppendUvarint(buf, uint64(parts.Queries))
	if version >= 2 {
		buf = binary.AppendUvarint(buf, walSeq)
	}

	buf = binary.AppendUvarint(buf, uint64(len(frags)))
	for _, f := range frags {
		buf = binary.AppendUvarint(buf, uint64(f.Context))
		buf = appendString(buf, f.Expr)
	}

	buf = binary.AppendUvarint(buf, uint64(len(parts.NV)))
	for _, n := range parts.NV {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	for _, r := range parts.RowStart {
		buf = binary.AppendUvarint(buf, uint64(r))
	}
	for _, c := range parts.ColID {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	for _, co := range parts.Co {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(co))
	}
	for _, ne := range parts.NECount {
		buf = binary.AppendUvarint(buf, uint64(ne))
	}

	binary.LittleEndian.PutUint64(buf[sizeAt:], uint64(len(buf)+trailerSize))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// Decode unpacks a snapshot file of any supported version (v1–v4). Corrupt
// input of every kind returns a typed error (see ErrBadMagic and friends) —
// never a panic — so a serving layer can fall back to re-mining the log.
//
// For v3+ input the returned archive's arrays and interned strings may alias
// data (zero copy); the caller must not mutate or recycle the buffer while
// the archive is in use. v1/v2 input always decodes into fresh memory.
func Decode(data []byte) (*Archive, error) {
	a, _, err := decodeAny(data)
	return a, err
}

// decodeAny verifies the generic header and trailer, then dispatches on the
// format version. aliased reports whether the archive references data.
func decodeAny(data []byte) (a *Archive, aliased bool, err error) {
	if len(data) < len(magic) {
		return nil, false, ErrTruncated
	}
	if string(data[:len(magic)]) != magic {
		return nil, false, ErrBadMagic
	}
	if len(data) < headerSize+trailerSize {
		return nil, false, ErrTruncated
	}
	version := binary.LittleEndian.Uint32(data[len(magic):])
	if version < minVersion || version > Version {
		return nil, false, &UnsupportedVersionError{Version: version}
	}
	declared := binary.LittleEndian.Uint64(data[len(magic)+4:])
	if uint64(len(data)) < declared {
		return nil, false, ErrTruncated
	}
	if uint64(len(data)) > declared {
		return nil, false, fmt.Errorf("%w: %d trailing bytes past declared size", ErrCorrupt, uint64(len(data))-declared)
	}
	body, trailer := data[:len(data)-trailerSize], data[len(data)-trailerSize:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, false, ErrChecksum
	}
	if version >= 3 {
		return decodeV3(body, version)
	}
	a, err = decodeLegacy(body, version)
	return a, false, err
}

// decodeLegacy walks the varint-packed v1/v2 payload with a bounds-checked
// cursor, copying every array into fresh memory.
func decodeLegacy(body []byte, version uint32) (*Archive, error) {
	d := &decoder{data: body, off: headerSize}
	dataset := d.string("dataset name")
	obscurity := fragment.Obscurity(d.uvarint("obscurity"))
	queries := d.int("query count")
	var walSeq uint64
	if version >= 2 {
		walSeq = d.uvarint("WAL sequence")
	}

	nfrags := d.count("fragment table size")
	frags := make([]fragment.Fragment, nfrags)
	for i := range frags {
		frags[i] = fragment.Fragment{
			Context: fragment.Context(d.uvarint("fragment context")),
			Expr:    d.string("fragment expression"),
		}
	}

	parts := qfg.SnapshotParts{Obscurity: obscurity, Queries: queries}
	nv := d.count("vertex count")
	parts.NV = make([]int, nv)
	for i := range parts.NV {
		parts.NV[i] = d.int("occurrence count")
	}
	parts.RowStart = make([]uint32, nv+1)
	for i := range parts.RowStart {
		parts.RowStart[i] = d.uint32("row index")
	}
	half := 0
	if d.err == nil {
		half = int(parts.RowStart[nv])
		// Each half-edge costs ≥ 10 encoded bytes (ID + weight + count),
		// so a corrupt row index can never drive allocation past file size.
		if half > (len(d.data)-d.off)/10 {
			d.fail("half-edge count", ErrCorrupt)
			half = 0
		}
	}
	// The row index's final entry IS the encoded half-edge count, so each
	// array is sized exactly once — no append-path regrowth on graphs whose
	// varint widths skew away from the guess a capacity heuristic would make.
	parts.ColID = make([]uint32, half)
	for i := range parts.ColID {
		parts.ColID[i] = d.uint32("neighbor ID")
	}
	parts.Co = make([]float64, half)
	for i := range parts.Co {
		parts.Co[i] = d.float64("co-occurrence weight")
	}
	parts.NECount = make([]int, half)
	for i := range parts.NECount {
		parts.NECount[i] = d.int("co-occurrence count")
	}
	if d.err == nil && d.off != len(d.data) {
		d.fail("payload end", ErrCorrupt)
	}
	if d.err != nil {
		return nil, d.err
	}

	in, err := fragment.NewInternerFromFragments(frags)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	snap, err := qfg.NewSnapshotFromParts(in, parts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &Archive{Dataset: dataset, Snapshot: snap, WalSeq: walSeq}, nil
}

// Write encodes a snapshot to w.
func Write(w io.Writer, dataset string, snap *qfg.Snapshot) error {
	_, err := w.Write(Encode(dataset, snap))
	return err
}

// Read decodes a snapshot from r (which is read to EOF).
func Read(r io.Reader) (*Archive, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// WriteFile atomically writes a packed snapshot with no WAL coverage: the
// bytes land in a temporary file first and are renamed over path, so a
// crash mid-write never leaves a half-written archive where a loader would
// find it.
func WriteFile(path, dataset string, snap *qfg.Snapshot) error {
	return WriteFileAt(path, dataset, snap, 0)
}

// WriteFileAt is WriteFile for a snapshot covering the write-ahead log
// through sequence walSeq. Compaction relies on the same atomicity: until
// the rename lands, the loader sees the previous archive (and replays the
// rotated-out WAL segment); after it, the new archive's WalSeq filters
// those records out.
func WriteFileAt(path, dataset string, snap *qfg.Snapshot, walSeq uint64) error {
	data := EncodeAt(dataset, snap, walSeq)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	// CreateTemp's 0600 would survive the rename and make the archive
	// unreadable to a service running as a different user than the packer.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// ReadFile loads a packed snapshot from disk.
func ReadFile(path string) (*Archive, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder is a bounds-checked cursor over the checksummed body. The first
// failure sticks: every later read returns zero values, so call sites stay
// linear and the caller checks err once.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(what string, sentinel error) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: bad %s at offset %d", sentinel, what, d.off)
	}
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail(what, ErrCorrupt)
		return 0
	}
	d.off += n
	return v
}

// count reads a collection size and rejects values that could not possibly
// fit in the remaining payload (each element takes at least one byte), so
// a corrupt length can never drive allocation beyond the file size.
func (d *decoder) count(what string) int {
	v := d.uvarint(what)
	if d.err == nil && v > uint64(len(d.data)-d.off) {
		d.fail(what, ErrCorrupt)
		return 0
	}
	return int(v)
}

func (d *decoder) int(what string) int {
	v := d.uvarint(what)
	if d.err == nil && v > math.MaxInt64/2 {
		d.fail(what, ErrCorrupt)
		return 0
	}
	return int(v)
}

func (d *decoder) uint32(what string) uint32 {
	v := d.uvarint(what)
	if d.err == nil && v > math.MaxUint32 {
		d.fail(what, ErrCorrupt)
		return 0
	}
	return uint32(v)
}

func (d *decoder) string(what string) string {
	n := d.count(what)
	if d.err != nil {
		return ""
	}
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) float64(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data)-d.off < 8 {
		d.fail(what, ErrCorrupt)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v
}
