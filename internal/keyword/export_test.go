package keyword

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
	var out []Match
	for _, tm := range m.index.findTextAttrs(keyword) {
		out = append(out, Match{tm.rel + "." + tm.attr, tm.values})
	}
	return out
}

func (m *Mapper) IndexNumericAttrs(n float64, op string) []Match {
	var out []Match
	for _, ra := range m.index.findNumericAttrs(n, op) {
		out = append(out, Match{Attr: ra.rel + "." + ra.attr})
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

var ExtractNumber = extractNumber
