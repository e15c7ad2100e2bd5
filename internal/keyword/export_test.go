package keyword

import "templar/internal/db"

// Test-only views of the candidate index for the external parity tests in
// package keyword_test, which need internal/datasets (an importer of this
// package) and so cannot live in package keyword.

func (m *Mapper) IndexTextAttrs(keyword string) []db.TextMatch {
	return m.index.findTextAttrs(keyword)
}

func (m *Mapper) IndexNumericAttrs(n float64, op string) []db.NumericMatch {
	return m.index.findNumericAttrs(n, op)
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

var ExtractNumber = extractNumber
