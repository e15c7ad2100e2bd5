package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"
	"unsafe"

	"templar/internal/fragment"
	"templar/internal/qfg"
)

// v3/v4 payload layout. After the generic 20-byte header come 4 zero bytes
// of padding (so everything below sits at 8-byte file offsets), then a
// fixed header of little-endian uint64 fields (16 in v3, 17 in v4), then
// the data sections:
//
//	offset  field
//	20      4 bytes padding (zero)
//	24      fixed header, 16 × uint64:
//	          [0]  obscurity level
//	          [1]  total logged queries
//	          [2]  WAL sequence the snapshot covers
//	          [3]  F  interner table size
//	          [4]  V  snapshot vertex count (V ≤ F)
//	          [5]  H  half-edge count (= rowStart[V])
//	          [6]  dataset name length in bytes
//	          [7]  expression blob length in bytes
//	          [8]  section offset: dataset name (UTF-8 bytes)
//	          [9]  section offset: fragment records, F × 16 bytes
//	                 {context uint32, exprLen uint32, exprOff uint64}
//	                 with exprOff relative to the expression blob
//	          [10] section offset: expression blob (concatenated UTF-8)
//	          [11] section offset: nv occurrence counts, V × int64
//	          [12] section offset: CSR row index, (V+1) × uint32
//	          [13] section offset: neighbor IDs, H × uint32
//	          [14] section offset: blended co-occurrence weights,
//	                 H × float64 bits (preserved exactly)
//	          [15] section offset: raw co-occurrence counts, H × int64
//	          [16] v4 only: section offset: session weights,
//	                 H × float64 bits (preserved exactly)
//
// Section offsets are absolute file offsets, every one a multiple of 8, with
// zero padding between sections; fixed-width little-endian elements mean the
// int64/uint32/float64 arrays ARE the in-memory representation on 64-bit
// little-endian hosts, so a decoded snapshot's arrays (and its interned
// fragment strings) can alias the file bytes directly — the zero-copy path
// Open takes over an mmap'd archive. Hosts where aliasing is unsound
// (32-bit int, big-endian, or a misaligned buffer) fall back to a copying
// decode of the same sections; both paths produce bit-identical snapshots.
//
// v4 adds the session-weight section: the per-half-edge sum that co was
// rounded from, so appends after a round trip fold session evidence
// exactly as the process that packed the archive would have. A v3 archive
// has no such section; its snapshot derives the weights as co − ne, which
// can be off in the last bit (see qfg.SnapshotParts).
const (
	v3HeaderOff = headerSize + 4 // generic header + padding, 8-aligned
	v4NumFields = 17
	v3FragRec   = 16 // bytes per fragment record
)

// fixedFields is the number of fixed-header fields of a v3+ archive.
func fixedFields(version uint32) int {
	if version >= 4 {
		return v4NumFields
	}
	return v4NumFields - 1
}

// Field indexes of the v3 fixed header.
const (
	v3FieldObscurity = iota
	v3FieldQueries
	v3FieldWalSeq
	v3FieldFrags
	v3FieldVerts
	v3FieldHalves
	v3FieldDatasetLen
	v3FieldBlobLen
	v3FieldSecDataset
	v3FieldSecFragTab
	v3FieldSecBlob
	v3FieldSecNV
	v3FieldSecRowStart
	v3FieldSecColID
	v3FieldSecCo
	v3FieldSecNECount
	v4FieldSecSess
)

// hostLittle reports whether this machine stores integers little-endian —
// one of the three conditions for aliasing file bytes as typed slices.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// canAlias reports whether the v3 arrays inside data can be used in place:
// the host must be 64-bit little-endian and the buffer 8-byte aligned (mmap
// regions are page-aligned; Go heap buffers this size are 8-aligned, but a
// caller-provided sub-slice might not be).
func canAlias(data []byte) bool {
	return strconv.IntSize == 64 && hostLittle && len(data) > 0 &&
		uintptr(unsafe.Pointer(&data[0]))%8 == 0
}

func align8(n int) int { return (n + 7) &^ 7 }

// encodeFixedAt lays out the fixed-section format described above, as v4
// (the current Version) or, for the compat tests, v3.
func encodeFixedAt(dataset string, snap *qfg.Snapshot, walSeq uint64, version uint32) []byte {
	parts := snap.Parts()
	frags := snap.Interner().Fragments()
	nVerts := len(parts.NV)
	nHalf := len(parts.ColID)
	blobLen := 0
	for _, f := range frags {
		blobLen += len(f.Expr)
	}

	secDataset := v3HeaderOff + fixedFields(version)*8
	secFragTab := align8(secDataset + len(dataset))
	secBlob := secFragTab + len(frags)*v3FragRec
	secNV := align8(secBlob + blobLen)
	secRowStart := secNV + nVerts*8
	secColID := align8(secRowStart + (nVerts+1)*4)
	secCo := align8(secColID + nHalf*4)
	secNECount := secCo + nHalf*8
	end := secNECount + nHalf*8
	secSess := end
	if version >= 4 {
		end += nHalf * 8
	}
	total := end + trailerSize

	buf := make([]byte, end, total)
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[len(magic):], version)
	binary.LittleEndian.PutUint64(buf[len(magic)+4:], uint64(total))

	hdr := buf[v3HeaderOff:]
	put := func(field int, v uint64) { binary.LittleEndian.PutUint64(hdr[field*8:], v) }
	put(v3FieldObscurity, uint64(parts.Obscurity))
	put(v3FieldQueries, uint64(parts.Queries))
	put(v3FieldWalSeq, walSeq)
	put(v3FieldFrags, uint64(len(frags)))
	put(v3FieldVerts, uint64(nVerts))
	put(v3FieldHalves, uint64(nHalf))
	put(v3FieldDatasetLen, uint64(len(dataset)))
	put(v3FieldBlobLen, uint64(blobLen))
	put(v3FieldSecDataset, uint64(secDataset))
	put(v3FieldSecFragTab, uint64(secFragTab))
	put(v3FieldSecBlob, uint64(secBlob))
	put(v3FieldSecNV, uint64(secNV))
	put(v3FieldSecRowStart, uint64(secRowStart))
	put(v3FieldSecColID, uint64(secColID))
	put(v3FieldSecCo, uint64(secCo))
	put(v3FieldSecNECount, uint64(secNECount))
	if version >= 4 {
		put(v4FieldSecSess, uint64(secSess))
	}

	copy(buf[secDataset:], dataset)
	exprOff := 0
	for i, f := range frags {
		rec := buf[secFragTab+i*v3FragRec:]
		binary.LittleEndian.PutUint32(rec, uint32(f.Context))
		binary.LittleEndian.PutUint32(rec[4:], uint32(len(f.Expr)))
		binary.LittleEndian.PutUint64(rec[8:], uint64(exprOff))
		copy(buf[secBlob+exprOff:], f.Expr)
		exprOff += len(f.Expr)
	}
	for i, n := range parts.NV {
		binary.LittleEndian.PutUint64(buf[secNV+i*8:], uint64(n))
	}
	for i, r := range parts.RowStart {
		binary.LittleEndian.PutUint32(buf[secRowStart+i*4:], r)
	}
	for i, c := range parts.ColID {
		binary.LittleEndian.PutUint32(buf[secColID+i*4:], c)
	}
	for i, co := range parts.Co {
		binary.LittleEndian.PutUint64(buf[secCo+i*8:], math.Float64bits(co))
	}
	for i, ne := range parts.NECount {
		binary.LittleEndian.PutUint64(buf[secNECount+i*8:], uint64(ne))
	}
	if version >= 4 {
		for i, w := range parts.Sess {
			binary.LittleEndian.PutUint64(buf[secSess+i*8:], math.Float64bits(w))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// v3Header is the parsed and bounds-checked fixed header; a v3 archive
// leaves the v4-only fields zero.
type v3Header struct {
	fields [v4NumFields]uint64
}

// parseV3Header validates the fixed header against the body length: every
// section must be 8-aligned, lie fully inside the body, and every count must
// fit the address space — so the view constructors below can slice without
// further checks and a corrupt header can never drive a panic or an
// unbounded allocation.
func parseV3Header(body []byte, version uint32) (*v3Header, error) {
	n := fixedFields(version)
	headerEnd := v3HeaderOff + n*8
	if len(body) < headerEnd {
		return nil, fmt.Errorf("%w: body shorter than the v%d fixed header", ErrCorrupt, version)
	}
	h := &v3Header{}
	for i := 0; i < n; i++ {
		h.fields[i] = binary.LittleEndian.Uint64(body[v3HeaderOff+i*8:])
	}
	section := func(what string, field int, elemSize, n uint64) error {
		off := h.fields[field]
		if off%8 != 0 {
			return fmt.Errorf("%w: misaligned %s section at offset %d", ErrCorrupt, what, off)
		}
		if n > math.MaxInt64/elemSize {
			return fmt.Errorf("%w: oversized %s section (%d elements)", ErrCorrupt, what, n)
		}
		if end := off + n*elemSize; off < uint64(headerEnd) || end < off || end > uint64(len(body)) {
			return fmt.Errorf("%w: %s section [%d, %d) outside payload", ErrCorrupt, what, off, off+n*elemSize)
		}
		return nil
	}
	nFrags, nVerts, nHalf := h.fields[v3FieldFrags], h.fields[v3FieldVerts], h.fields[v3FieldHalves]
	for _, f := range []int{v3FieldObscurity, v3FieldQueries} {
		if h.fields[f] > math.MaxInt64/2 {
			return nil, fmt.Errorf("%w: oversized v3 header field %d", ErrCorrupt, f)
		}
	}
	if err := section("dataset", v3FieldSecDataset, 1, h.fields[v3FieldDatasetLen]); err != nil {
		return nil, err
	}
	if err := section("fragment table", v3FieldSecFragTab, v3FragRec, nFrags); err != nil {
		return nil, err
	}
	if err := section("expression blob", v3FieldSecBlob, 1, h.fields[v3FieldBlobLen]); err != nil {
		return nil, err
	}
	if err := section("nv", v3FieldSecNV, 8, nVerts); err != nil {
		return nil, err
	}
	if err := section("row index", v3FieldSecRowStart, 4, nVerts+1); err != nil {
		return nil, err
	}
	if err := section("neighbor IDs", v3FieldSecColID, 4, nHalf); err != nil {
		return nil, err
	}
	if err := section("weights", v3FieldSecCo, 8, nHalf); err != nil {
		return nil, err
	}
	if err := section("counts", v3FieldSecNECount, 8, nHalf); err != nil {
		return nil, err
	}
	if version >= 4 {
		if err := section("session weights", v4FieldSecSess, 8, nHalf); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// readSection returns the n elements of T at body[off]. With alias it
// reinterprets the bytes in place without copying: parseV3Header proved
// the range in-bounds and 8-aligned, and canAlias proved the base aligned
// and the element layout byte-identical. Otherwise it decodes each
// size-byte little-endian element with get into fresh memory.
func readSection[T any](body []byte, off, n uint64, alias bool, size uint64, get func([]byte) T) []T {
	if alias {
		if n == 0 {
			return make([]T, 0)
		}
		return unsafe.Slice((*T)(unsafe.Pointer(&body[off])), int(n))
	}
	out := make([]T, n)
	for i := range out {
		out[i] = get(body[off+uint64(i)*size:])
	}
	return out
}

func leInt(b []byte) int { return int(int64(binary.LittleEndian.Uint64(b))) }

func leFloat(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// decodeV3 builds an archive over a verified v3 or v4 body. When the host and
// buffer allow it, the snapshot's arrays and interned strings alias body
// directly (aliased = true, zero copies); otherwise every section is copied
// into fresh memory. Either way the structural invariants are enforced by
// qfg.NewSnapshotFromParts before the snapshot escapes.
func decodeV3(body []byte, version uint32) (*Archive, bool, error) {
	h, err := parseV3Header(body, version)
	if err != nil {
		return nil, false, err
	}
	alias := canAlias(body)
	nFrags := int(h.fields[v3FieldFrags])
	nVerts := h.fields[v3FieldVerts]
	nHalf := h.fields[v3FieldHalves]
	blobLen := h.fields[v3FieldBlobLen]

	dataset := string(body[h.fields[v3FieldSecDataset] : h.fields[v3FieldSecDataset]+h.fields[v3FieldDatasetLen]])
	blob := body[h.fields[v3FieldSecBlob] : h.fields[v3FieldSecBlob]+blobLen]
	frags := make([]fragment.Fragment, nFrags)
	fragTab := body[h.fields[v3FieldSecFragTab]:]
	for i := range frags {
		rec := fragTab[i*v3FragRec:]
		exprLen := uint64(binary.LittleEndian.Uint32(rec[4:]))
		exprOff := binary.LittleEndian.Uint64(rec[8:])
		if end := exprOff + exprLen; end < exprOff || end > blobLen {
			return nil, false, fmt.Errorf("%w: fragment %d expression [%d, %d) outside blob", ErrCorrupt, i, exprOff, end)
		}
		var expr string
		if exprLen > 0 {
			if alias {
				expr = unsafe.String(&blob[exprOff], int(exprLen))
			} else {
				expr = string(blob[exprOff : exprOff+exprLen])
			}
		}
		frags[i] = fragment.Fragment{
			Context: fragment.Context(binary.LittleEndian.Uint32(rec)),
			Expr:    expr,
		}
	}

	parts := qfg.SnapshotParts{
		Obscurity: fragment.Obscurity(h.fields[v3FieldObscurity]),
		Queries:   int(h.fields[v3FieldQueries]),
	}
	f := h.fields
	parts.NV = readSection(body, f[v3FieldSecNV], nVerts, alias, 8, leInt)
	parts.RowStart = readSection(body, f[v3FieldSecRowStart], nVerts+1, alias, 4, binary.LittleEndian.Uint32)
	parts.ColID = readSection(body, f[v3FieldSecColID], nHalf, alias, 4, binary.LittleEndian.Uint32)
	parts.Co = readSection(body, f[v3FieldSecCo], nHalf, alias, 8, leFloat)
	parts.NECount = readSection(body, f[v3FieldSecNECount], nHalf, alias, 8, leInt)
	if version >= 4 {
		parts.Sess = readSection(body, f[v4FieldSecSess], nHalf, alias, 8, leFloat)
	}

	in, err := fragment.NewInternerFromFragments(frags)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	snap, err := qfg.NewSnapshotFromParts(in, parts)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &Archive{Dataset: dataset, Snapshot: snap, WalSeq: h.fields[v3FieldWalSeq]}, alias, nil
}

// Section describes one region of a v3+ archive for diagnostics
// (qfg-inspect info prints the table).
type Section struct {
	Name string
	// Off is the absolute file offset; Len the used bytes (inter-section
	// padding excluded).
	Off, Len uint64
}

// Sections returns a v3+ archive's section table in file order. Archives in
// the varint formats (v1/v2) have no sections; they return (nil, nil).
func Sections(data []byte) ([]Section, error) {
	if len(data) < headerSize+trailerSize {
		return nil, ErrTruncated
	}
	if string(data[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	version := binary.LittleEndian.Uint32(data[len(magic):])
	if version < 3 {
		return nil, nil
	}
	h, err := parseV3Header(data[:len(data)-trailerSize], version)
	if err != nil {
		return nil, err
	}
	nVerts, nHalf := h.fields[v3FieldVerts], h.fields[v3FieldHalves]
	secs := []Section{
		{"header", 0, uint64(v3HeaderOff + fixedFields(version)*8)},
		{"dataset", h.fields[v3FieldSecDataset], h.fields[v3FieldDatasetLen]},
		{"fragments", h.fields[v3FieldSecFragTab], h.fields[v3FieldFrags] * v3FragRec},
		{"exprblob", h.fields[v3FieldSecBlob], h.fields[v3FieldBlobLen]},
		{"nv", h.fields[v3FieldSecNV], nVerts * 8},
		{"rowstart", h.fields[v3FieldSecRowStart], (nVerts + 1) * 4},
		{"colid", h.fields[v3FieldSecColID], nHalf * 4},
		{"co", h.fields[v3FieldSecCo], nHalf * 8},
		{"necount", h.fields[v3FieldSecNECount], nHalf * 8},
	}
	if version >= 4 {
		secs = append(secs, Section{"sess", h.fields[v4FieldSecSess], nHalf * 8})
	}
	return secs, nil
}
