package keyword

import (
	"testing"

	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

// Benchmarks for the configuration-ranking hot path against the compiled
// interned-ID snapshot. Run with:
//
//	go test ./internal/keyword -bench 'Rank|MapKeywords' -benchmem

func benchMapper(b *testing.B) *Mapper {
	snap := paperishLog(b, fragment.NoConstOp)
	return NewMapper(masMini(b), embedding.New(), snap, Options{})
}

// rankedConfig is a configuration with three QFG-participating fragments
// (three Dice pairs), the shape Translate ranks thousands of times.
func rankedConfig() Configuration {
	return Configuration{Mappings: []Mapping{
		{Kind: KindAttr, Rel: "publication", Attr: "title", Sim: 0.8},
		{Kind: KindPred, Rel: "journal", Attr: "name", Op: "=", Sim: 0.7,
			Value: sqlparse.Value{Kind: sqlparse.StringVal, S: "TMC"}},
		{Kind: KindPred, Rel: "publication", Attr: "year", Op: ">", Sim: 0.6,
			Value: sqlparse.Value{Kind: sqlparse.NumberVal, N: 2003}},
	}}
}

// BenchmarkRankDiceScoringSnapshot isolates the Dice scoring path of
// configuration ranking: ScoreQFG for one three-fragment configuration.
func BenchmarkRankDiceScoringSnapshot(b *testing.B) {
	m := benchMapper(b)
	cfg := rankedConfig()
	snap := m.snap
	ob := snap.Obscurity()
	ids := make([]candID, len(cfg.Mappings))
	for i, mp := range cfg.Mappings {
		ids[i] = candID{id: snap.Lookup(mp.Fragment(ob)), use: true}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.scoreQFGSnapshot(&cfg, snap, ids)
	}
}

// BenchmarkMapKeywordsRankingSnapshotQFG measures the whole MAPKEYWORDS
// call (retrieval, similarity, enumeration, ranking).
func BenchmarkMapKeywordsRankingSnapshotQFG(b *testing.B) {
	m := benchMapper(b)
	kws := []Keyword{
		{Text: "papers", Meta: Metadata{Context: fragment.Select}},
		{Text: "TMC", Meta: Metadata{Context: fragment.Where}},
		{Text: "2000", Meta: Metadata{Context: fragment.Where, Op: ">"}},
	}
	if _, err := m.MapKeywords(kws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MapKeywords(kws); err != nil {
			b.Fatal(err)
		}
	}
}
