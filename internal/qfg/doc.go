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
// # One graph, two views of it
//
// Snapshot is the graph: an immutable value with fragments interned to
// dense uint32 IDs (fragment.Interner), nv in a flat slice, and ne plus
// session weight as CSR-sorted adjacency probed by binary search. DiceID
// — the hot path — is a handful of array reads, lock-free. Build mines a
// parsed log into one; Occurrences, CoOccurrences, Dice, Top, Neighbors
// and SessionCoOccurrence inspect it by fragment.
//
// Live is a growing log: an atomically published snapshot. Appends
// (AddQuery, AddQueries, AddSession, Replay) fold into a private delta
// and splice a new snapshot from the current one — untouched CSR row
// ranges are bulk-copied, only the rows that gain or change a neighbor
// are merged — and readers load the current snapshot with one atomic
// pointer read, never blocked. Build is the same splice onto an empty
// snapshot, so there is one way a snapshot is made. The SnapshotSource
// interface abstracts "a place the current snapshot comes from" — a fixed
// *Snapshot and a *Live both satisfy it. Its one consumer is
// templar.NewLive, the only place a Live is bound to serving state;
// everything downstream (the keyword mapper, join weights) takes a fixed
// *Snapshot.
//
// # Persistence
//
// Parts/NewSnapshotFromParts expose and reassemble a snapshot's raw
// arrays so internal/store can round-trip snapshots to disk as versioned
// binary archives. NewLive over a loaded snapshot publishes it as is —
// the arrays may alias a read-only file mapping, and the first append
// splices fresh arrays out of it without writing into it — so a process
// cold-starting from the store serves bit-identical scores and accepts
// log appends with no rebuild step. The session weights travel as their
// own array (store format v4), so appends after a round trip sum exactly
// as they would have in memory; v1–v3 archives derive them as co − ne,
// which can be off in the last bit.
package qfg
