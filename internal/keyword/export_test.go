package keyword

import "templar/internal/embedding"

// Test-only views of the candidate index for the external parity tests in
// package keyword_test, which need internal/datasets (an importer of this
// package) and so cannot live in package keyword.

// Match is one probe hit as the external tests compare it: the qualified
// attribute and, for a full-text hit, its matching distinct values.
type Match struct {
	Attr   string
	Values []string
}

func (m *Mapper) IndexTextAttrs(keyword string) []Match {
	var q embedding.Query
	m.index.vocab.Resolve(&q, keyword)
	var out []Match
	for _, tm := range m.index.findTextAttrs(q.Stems()) {
		out = append(out, Match{tm.rel + "." + tm.attr, m.index.valueStrings(tm.values)})
	}
	return out
}

func (ci *candidateIndex) valueStrings(ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = ci.values[id]
	}
	return out
}

func (m *Mapper) IndexNumericAttrs(n float64, op string) []Match {
	var out []Match
	for _, na := range m.index.findNumericAttrs(n, op) {
		out = append(out, Match{Attr: na.rel + "." + na.attr})
	}
	return out
}

func (m *Mapper) IndexFromRels() []string { return m.index.fromRels }

// IndexSelectAttrs renders the SELECT-context candidates as "rel.attr".
func (m *Mapper) IndexSelectAttrs() []string {
	out := make([]string, len(m.index.selectAttrs))
	for i, ra := range m.index.selectAttrs {
		out[i] = ra.rel + "." + ra.attr
	}
	return out
}

var (
	ExtractNumber = extractNumber
	StripNumber   = stripNumber
)

// ScoredCandidates is keywordCands: one keyword's scored candidates in
// retrieval order, before PRUNE.
func (m *Mapper) ScoredCandidates(kw Keyword) []Mapping {
	return m.keywordCands(kw, new(mapScratch), nil)
}

// PhraseSim is one σ the interned vocabulary computed, with the text of
// the phrase it scored.
type PhraseSim struct {
	Phrase string
	Sim    float64
}

// IndexSimilarities resolves text as keywordCands resolves a keyword and
// scores it against every relation label, attribute label and label of a
// text or numeric attribute the index holds, and against every value its
// full-text probe matches.
func (m *Mapper) IndexSimilarities(text string) []PhraseSim {
	ci := m.index
	var q embedding.Query
	ci.vocab.Resolve(&q, text)
	var out []PhraseSim
	add := func(phrase string, toks []int32) {
		out = append(out, PhraseSim{phrase, q.Similarity(toks)})
	}
	for i, rel := range ci.fromRels {
		add(rel, ci.fromLabels[i])
	}
	for _, sa := range ci.selectAttrs {
		add(sa.rel+" "+sa.attr, sa.label)
	}
	for _, na := range ci.numAttrs {
		add(na.rel+" "+na.attr, na.label)
	}
	for _, ta := range ci.textAttrs {
		add(ta.rel+" "+ta.attr, ta.label)
	}
	for _, tm := range ci.findTextAttrs(q.Stems()) {
		for _, id := range tm.values {
			add(ci.values[id], ci.valueTokens(id))
		}
	}
	return out
}
