// Package store persists compiled Query Fragment Graph snapshots as
// compact versioned binary archives, making the mined QFG a durable,
// shareable artifact of the SQL log: a serving process cold-starts from
// one file read instead of re-mining the log (parse every query, fold the
// graph) — 100×+ faster on the bundled benchmarks
// (BenchmarkColdStart).
//
// An archive carries everything a serving engine needs: the dataset name,
// the obscurity level, the fragment interner table (so IDs survive the
// round trip) and the snapshot's CSR arrays with co-occurrence weights as
// raw IEEE-754 bits. A loaded snapshot therefore scores bit-identically
// to the one that was packed — DiceID parity is tested on every bundled
// dataset — and qfg.NewLive can publish it as a growing log as is: the
// session-weight section (v4) makes later appends fold exactly as they
// would have in the process that packed it.
//
// Use Encode/Decode for in-memory round trips, Write/Read for streams,
// and WriteFile/ReadFile for the conventional on-disk store (WriteFile is
// atomic-replace; Filename maps a dataset name to its "<name>.qfg" file).
// Decode never panics on hostile input: truncation, foreign files, bit
// flips, future versions and structurally invalid payloads surface as
// ErrTruncated, ErrBadMagic, ErrChecksum, *UnsupportedVersionError and
// ErrCorrupt respectively.
//
// The format specification lives with the codec in store.go and in
// docs/ARCHITECTURE.md. Compatibility rule: readers reject any version
// they don't know (no silent downgrades); writers always write the
// current Version. The format has no alignment requirements and is
// endian-fixed (little-endian), so archives are portable across
// platforms.
package store
