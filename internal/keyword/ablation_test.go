package keyword

import (
	"math"
	"testing"

	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

func TestArithmeticMeanOption(t *testing.T) {
	m := NewMapper(masMini(t), embedding.New(), nil, Options{UseArithmeticMean: true})
	cfg := Configuration{Mappings: []Mapping{
		{Kind: KindAttr, Rel: "publication", Attr: "title", Sim: 0.5},
		{Kind: KindPred, Rel: "domain", Attr: "name", Op: "=", Sim: 0.8,
			Value: sqlparse.Value{Kind: sqlparse.StringVal, S: "Databases"}},
	}}
	m.scoreConfigAdhoc(&cfg)
	if math.Abs(cfg.SimScore-0.65) > 1e-12 {
		t.Fatalf("arithmetic SimScore = %v, want 0.65", cfg.SimScore)
	}
	// Geometric mean penalizes imbalance harder than the arithmetic mean.
	geo := NewMapper(masMini(t), embedding.New(), nil, Options{})
	cfg2 := Configuration{Mappings: append([]Mapping(nil), cfg.Mappings...)}
	geo.scoreConfigAdhoc(&cfg2)
	if cfg2.SimScore >= cfg.SimScore {
		t.Fatalf("geometric %v should be below arithmetic %v for unequal scores", cfg2.SimScore, cfg.SimScore)
	}
}

func TestIncludeFromInQFGOption(t *testing.T) {
	snap := paperishLog(t, fragment.NoConstOp).Snapshot(nil)
	base := NewMapper(masMini(t), embedding.New(), snap, Options{})
	withFrom := NewMapper(masMini(t), embedding.New(), snap, Options{IncludeFromInQFG: true})
	cfg := Configuration{Mappings: []Mapping{
		{Kind: KindRelation, Rel: "journal", Sim: 0.8},
		{Kind: KindAttr, Rel: "journal", Attr: "name", Sim: 0.8},
	}}
	cfgA := Configuration{Mappings: append([]Mapping(nil), cfg.Mappings...)}
	cfgB := Configuration{Mappings: append([]Mapping(nil), cfg.Mappings...)}
	base.scoreConfigAdhoc(&cfgA)
	withFrom.scoreConfigAdhoc(&cfgB)
	// Excluding FROM leaves a single non-relation fragment (marginal
	// evidence); including it creates the (journal, journal.name) pair,
	// whose Dice is high precisely because SQL forces the relation —
	// the redundancy the paper excludes.
	if cfgB.QFGScore <= cfgA.QFGScore {
		t.Fatalf("include-FROM should inflate QFG score: %v vs %v", cfgB.QFGScore, cfgA.QFGScore)
	}
}

// scoreConfigAdhoc scores one standalone configuration, translating its
// fragments to IDs on the spot (the enumeration in genAndScoreConfigs
// precomputes IDs for whole candidate sets instead).
func (m *Mapper) scoreConfigAdhoc(cfg *Configuration) {
	snap := m.snap
	var ids []candID
	if snap != nil {
		ob := snap.Obscurity()
		ids = make([]candID, len(cfg.Mappings))
		for i, mp := range cfg.Mappings {
			if mp.Kind == KindRelation && !m.opts.IncludeFromInQFG {
				continue
			}
			ids[i] = candID{id: snap.Lookup(mp.Fragment(ob)), use: true}
		}
	}
	m.scoreConfig(cfg, snap, ids, m.opts)
}
