package eval

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
	"templar/internal/store"
	"templar/internal/templar"
)

// TestGoldenMmapDecodeParity is the end-to-end acceptance gate for the
// zero-copy snapshot path: on every committed corpus — all three datasets
// at all three obscurity levels — a serving engine whose snapshot ALIASES
// an mmap'd v3 archive must replay the golden battery byte-identically to
// an engine built from the copying decode of the same file, and both must
// match the committed corpus. Array-level parity lives in internal/store;
// this test proves the aliased arrays survive the full translation
// pipeline (keyword mapping, join inference, SQL generation, ranking).
func TestGoldenMmapDecodeParity(t *testing.T) {
	for _, ds := range datasets.All() {
		for _, ob := range fragment.Levels() {
			ds, ob := ds, ob
			t.Run(strings.ToLower(ds.Name)+"/"+ob.String(), func(t *testing.T) {
				t.Parallel()
				raw, err := os.ReadFile(filepath.Join(goldenDir, GoldenFilename(ds.Name, ob)))
				if err != nil {
					t.Fatalf("missing committed corpus (run `make golden`): %v", err)
				}
				want, err := DecodeGolden(raw)
				if err != nil {
					t.Fatal(err)
				}
				opts := GoldenOptions{
					TopConfigs: want.TopConfigs,
					MaxTasks:   want.MaxTasks,
					Seed:       want.Seed,
					K:          want.K,
					Lambda:     want.Lambda,
				}

				// Mine the graph exactly as BuildGolden does, then round it
				// through a packed v3 archive on disk.
				entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
				for _, task := range ds.Tasks {
					q, err := sqlparse.Parse(task.Gold)
					if err != nil {
						t.Fatalf("%s: %v", task.ID, err)
					}
					entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
				}
				graph, err := qfg.Build(entries, ob)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), store.Filename(ds.Name))
				if err := store.WriteFile(path, ds.Name, graph); err != nil {
					t.Fatal(err)
				}

				sysFrom := func(s *qfg.Snapshot) *templar.System {
					return templar.NewLive(ds.DB, embedding.New(), qfg.NewLive(s), templar.Options{
						Keyword: keyword.Options{K: opts.K, Lambda: opts.Lambda, Obscurity: ob},
						LogJoin: true,
					})
				}

				decoded, err := store.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				mapped, err := store.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer mapped.Close()
				if !mapped.Mmapped() {
					t.Skip("host cannot alias v3 archives; the copying fallback is already covered by decode parity")
				}

				gotDecoded, err := ReplayGolden(ds, sysFrom(decoded.Snapshot), ob, opts)
				if err != nil {
					t.Fatal(err)
				}
				gotMapped, err := ReplayGolden(ds, sysFrom(mapped.Snapshot), ob, opts)
				if err != nil {
					t.Fatal(err)
				}

				decBytes, mapBytes := EncodeGolden(gotDecoded), EncodeGolden(gotMapped)
				if !bytes.Equal(decBytes, mapBytes) {
					t.Fatalf("mmap-backed engine diverged from decode-backed engine:\n%s",
						strings.Join(DiffGolden(gotDecoded, gotMapped), "\n"))
				}
				// Both must also agree with the committed corpus: snapshot
				// round-tripping (either path) must not shift a single answer.
				if diffs := DiffGolden(want, gotMapped); len(diffs) > 0 {
					t.Fatalf("mmap-backed engine diverged from the committed corpus:\n%s",
						strings.Join(diffs, "\n"))
				}
			})
		}
	}
}
