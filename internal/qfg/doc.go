// Package qfg implements the Query Fragment Graph (paper Definition 6): a
// graph whose vertices are query fragments observed in a SQL query log,
// with an occurrence count nv per fragment and a co-occurrence count ne
// per pair of fragments that appear together in at least one logged query.
//
// The QFG drives both of Templar's log-based scores:
//
//   - keyword-mapping configurations are ranked with the geometric mean of
//     Dice coefficients over non-FROM fragment pairs (§V-C2), and
//   - join-path edge weights are set to 1 − Dice over FROM fragments (§VI-A2).
//
// # Three representations, one graph
//
// Graph is the mutable builder: fragment-keyed maps behind an RWMutex,
// grown by AddQuery/AddQueries/AddSession and inspected with Occurrences,
// CoOccurrences, Dice, Top and Neighbors. Build mines a parsed log in one
// call. No request is ever scored through a Graph: its Dice, Occurrences
// and Queries are the reference the parity tests here and in
// internal/keyword hold the snapshot scoring path to, and what the
// examples and qfg-inspect print.
//
// Snapshot is the immutable compiled view serving reads come from:
// fragments interned to dense uint32 IDs (fragment.Interner), nv in a flat
// slice, ne as CSR-sorted adjacency probed by binary search. DiceID — the
// hot path — is a handful of array reads, lock-free, bit-identical to
// Graph.Dice on the same state. Graph.Snapshot compiles one; snapshots
// sharing an interner agree on every fragment ID.
//
// Live couples a builder with an atomically published snapshot: appends
// mutate the builder and republish copy-on-write, readers load the current
// snapshot with one atomic pointer read and are never blocked. The
// SnapshotSource interface abstracts "a place the current snapshot comes
// from" — a fixed *Snapshot and a *Live both satisfy it, and it is the one
// argument the keyword mapper and the templar engine take for their log.
// NonNilSource folds a typed nil *Snapshot or *Live into a nil source, the
// log-free baseline.
//
// # Persistence
//
// Parts/NewSnapshotFromParts expose and reassemble a snapshot's raw
// compiled arrays so internal/store can round-trip snapshots to disk as
// versioned binary archives. RehydrateGraph reconstructs a builder graph
// from a loaded snapshot, and NewLiveFromSnapshot wraps one in a Live
// whose first publication is the loaded snapshot itself — so a process
// cold-starting from the store serves bit-identical scores and still
// accepts log appends.
package qfg
