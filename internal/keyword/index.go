package keyword

import (
	"slices"
	"sort"
	"strings"

	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/schema"
	"templar/internal/stem"
)

// candidateIndex is the one implementation of Algorithm 2's candidate
// retrieval (§V-A): the FROM-context relation list, the SELECT-context
// non-key attribute list, findTextAttrs over a per-attribute inverted text
// index (sorted stemmed tokens with value-ID postings), and
// findNumericAttrs over the sorted distinct values of every non-key
// numeric attribute. It is built once, at NewMapper time, from the
// database's rows; the database itself keeps no index.
//
// The index also holds what Algorithm 3 scores: an interned token
// vocabulary (embedding.Vocab) over every schema label and text value,
// each label and value stored as its span of token IDs. Every distinct
// token is split, stemmed and hashed once, here, for both the postings and
// the vocabulary.
//
// The index is immutable after construction and therefore safe for
// concurrent use. Text and numeric probes list attributes by sorted
// relation name, then declaration order; FROM and SELECT candidates are in
// schema insertion order. TestCandidateIndexMatchesDatabaseProbes holds
// every probe to a plain scan of the rows.
type candidateIndex struct {
	vocab *embedding.Vocab
	// fromRels is the FROM-context candidate list (schema insertion order)
	// and fromLabels their names' token IDs.
	fromRels   []string
	fromLabels [][]int32
	// selectAttrs is the SELECT-context candidate list: every non-key
	// attribute in schema insertion order.
	selectAttrs []selectAttr
	// textAttrs carries one inverted index per text attribute, ordered by
	// sorted relation name then attribute declaration order.
	textAttrs []textAttrIndex
	// numAttrs carries sorted distinct values per non-key numeric
	// attribute, in the same relation/attribute order.
	numAttrs []numAttrIndex
	// values holds every text attribute's sorted distinct values, one
	// attribute after another, so value IDs ascend in sorted value order
	// within an attribute. Value id's token IDs are
	// valTok[valOff[id]:valOff[id+1]].
	values []string
	valOff []int32
	valTok []int32
}

// relAttr is one (relation, attribute) pair.
type relAttr struct {
	rel, attr string
}

// selectAttr is one SELECT-context candidate with the token IDs of its
// label "rel attr"; primary marks its relation's first text attribute.
type selectAttr struct {
	relAttr
	label   []int32
	primary bool
}

// textMatch is one full-text hit: a text attribute and the IDs of its
// distinct values that match every query stem, ascending.
type textMatch struct {
	*textAttrIndex
	values []int32
}

// textAttrIndex is the inverted full-text index of one text attribute:
// the sorted stemmed token vocabulary with, per stem, the ascending IDs of
// the distinct values containing it (postings post[postOff[i]:postOff[i+1]]
// for stems[i]). Prefix queries become a binary search over stems instead
// of a scan of the whole vocabulary.
type textAttrIndex struct {
	relAttr
	label             []int32
	relStem, attrStem string
	stems             []string
	postOff           []int32
	post              []int32
}

// numAttrIndex holds the sorted distinct values of one numeric attribute,
// so "does any row satisfy attr op n" is answered from the extremes and a
// binary search rather than a row scan.
type numAttrIndex struct {
	relAttr
	label  []int32
	values []float64
}

// buildCandidateIndex constructs the index from a populated database,
// interning its labels and text values against model's vocabulary.
// Primary-key columns and both ends of every FK-PK edge are key columns:
// surrogate ids are never the target of a user's keyword, so they are
// neither SELECT nor numeric-predicate candidates.
func buildCandidateIndex(database *db.Database, model *embedding.Model) *candidateIndex {
	g := database.Schema()
	keys := make(map[relAttr]bool)
	for _, fk := range g.ForeignKeys() {
		keys[relAttr{fk.FromRel, fk.FromAttr}] = true
		keys[relAttr{fk.ToRel, fk.ToAttr}] = true
	}
	v := embedding.NewVocab(model)
	ci := &candidateIndex{vocab: v, fromRels: g.Relations(), valOff: []int32{0}}
	label := func(ra relAttr) []int32 { return v.AppendTokens(v.AppendTokens(nil, ra.rel), ra.attr) }
	for _, rn := range ci.fromRels {
		ci.fromLabels = append(ci.fromLabels, v.AppendTokens(nil, rn))
		rel, _ := g.Relation(rn)
		primary := rel.PrimaryTextAttribute()
		for _, a := range rel.Attributes {
			ra := relAttr{rn, a.Name}
			if a.PrimaryKey {
				keys[ra] = true
			}
			if !keys[ra] {
				ci.selectAttrs = append(ci.selectAttrs, selectAttr{ra, label(ra), a.Name == primary})
			}
		}
	}

	sortedRels := g.Relations()
	sort.Strings(sortedRels)
	for _, rn := range sortedRels {
		rel, _ := g.Relation(rn)
		t := database.Table(rn)
		relStem := stem.Stem(rn)
		for col, a := range rel.Attributes {
			ra := relAttr{rn, a.Name}
			switch {
			case a.Type == schema.Text:
				ta := ci.buildTextIndex(t.DistinctValues(a.Name))
				ta.relAttr, ta.label, ta.relStem, ta.attrStem = ra, label(ra), relStem, stem.Stem(a.Name)
				ci.textAttrs = append(ci.textAttrs, ta)
			case a.Type == schema.Number && !keys[ra]:
				ci.numAttrs = append(ci.numAttrs, buildNumIndex(t.Rows(), col, ra, label(ra)))
			}
		}
	}
	return ci
}

// buildTextIndex assigns the next value IDs to an attribute's sorted
// distinct values, interns their tokens, and maps every token stem to the
// IDs of the values containing it, as sorted stems with flat postings.
// IDs are handed out in value order, so each posting list is built in
// order.
func (ci *candidateIndex) buildTextIndex(vals []string) textAttrIndex {
	byStem := make(map[string][]int32)
	for _, v := range vals {
		id := int32(len(ci.values))
		ci.values = append(ci.values, v)
		lo := len(ci.valTok)
		ci.valTok = ci.vocab.AppendTokens(ci.valTok, v)
		ci.valOff = append(ci.valOff, int32(len(ci.valTok)))
		for _, tok := range ci.valTok[lo:] {
			s := ci.vocab.StemOf(tok)
			if ids := byStem[s]; len(ids) == 0 || ids[len(ids)-1] != id {
				byStem[s] = append(ids, id)
			}
		}
	}
	var ta textAttrIndex
	ta.stems = make([]string, 0, len(byStem))
	n := 0
	for s, ids := range byStem {
		ta.stems = append(ta.stems, s)
		n += len(ids)
	}
	sort.Strings(ta.stems)
	ta.postOff = make([]int32, 1, len(ta.stems)+1)
	ta.post = make([]int32, 0, n)
	for _, s := range ta.stems {
		ta.post = append(ta.post, byStem[s]...)
		ta.postOff = append(ta.postOff, int32(len(ta.post)))
	}
	return ta
}

// valueTokens returns the token IDs of text value id.
func (ci *candidateIndex) valueTokens(id int32) []int32 {
	return ci.valTok[ci.valOff[id]:ci.valOff[id+1]]
}

// buildNumIndex collects the sorted distinct values of column col.
func buildNumIndex(rows [][]db.Value, col int, ra relAttr, label []int32) numAttrIndex {
	vals := make([]float64, len(rows))
	for i, row := range rows {
		vals[i] = row[col].N
	}
	slices.Sort(vals)
	return numAttrIndex{relAttr: ra, label: label, values: slices.Clone(slices.Compact(vals))}
}

// findTextAttrs is findTextAttrs of Algorithm 2: boolean-mode "+tok*" AND
// semantics over every text attribute — each query stem must prefix some
// stemmed token of a matching value — returning the attributes with at
// least one matching distinct value. stems are the keyword's token stems
// (embedding.Query.Stems). Query stems that exactly match the stemmed
// relation or attribute name are dropped for that attribute so they do not
// over-constrain the search (the "movie Saving Private Ryan" rule of
// §V-A); an attribute left with no query stems is skipped.
func (ci *candidateIndex) findTextAttrs(stems []string) []textMatch {
	if len(stems) == 0 {
		return nil
	}
	var out []textMatch
	var buf [8]string
	for i := range ci.textAttrs {
		ta := &ci.textAttrs[i]
		query := buf[:0]
		for _, s := range stems {
			if s == ta.relStem || s == ta.attrStem {
				continue
			}
			query = append(query, s)
		}
		if len(query) == 0 {
			continue
		}
		if vals := ta.matchAll(query); len(vals) > 0 {
			out = append(out, textMatch{ta, vals})
		}
	}
	return out
}

// matchAll intersects, across query stems, the union of postings of the
// stems having the query stem as a prefix. Results are ascending value
// IDs.
// Every list involved is sorted and duplicate-free, so both steps are
// merges: a query stem's prefix-matching stems are one contiguous run of
// the sorted vocabulary, their postings are adjacent runs of post that
// merge into one union, and each later stem's union is intersected into
// the running result in place. The result is a fresh slice; it never
// aliases a posting.
func (ta *textAttrIndex) matchAll(queryStems []string) []int32 {
	var result []int32
	for i, qs := range queryStems {
		lo := sort.SearchStrings(ta.stems, qs)
		hi := lo + sort.Search(len(ta.stems)-lo, func(j int) bool {
			return !strings.HasPrefix(ta.stems[lo+j], qs)
		})
		if lo == hi {
			return nil
		}
		offs := ta.postOff[lo : hi+1]
		runs := ta.post[offs[0]:offs[len(offs)-1]]
		switch {
		case i == 0:
			result = unionRuns(runs, offs)
		case hi-lo == 1:
			result = intersectSorted(result, runs)
		default:
			result = intersectSorted(result, unionRuns(runs, offs))
		}
		if len(result) == 0 {
			return nil
		}
	}
	return result
}

// unionRuns returns the sorted union of adjacent sorted, duplicate-free
// runs as a fresh slice: run k is flat[offs[k]-offs[0]:offs[k+1]-offs[0]]
// (offs are postOff entries, so flat is post[offs[0]:offs[len(offs)-1]]).
// Several runs are merged bottom-up: each pass merges neighbouring runs
// pairwise into a second buffer, so a short stem matching many tokens costs
// O(total·log(runs)) rather than a merge per run.
func unionRuns(flat, offs []int32) []int32 {
	buf := append(make([]int32, 0, len(flat)), flat...)
	if len(offs) <= 2 {
		return buf
	}
	ends := make([]int, len(offs)-1) // run k is buf[ends[k-1]:ends[k]]
	for k := range ends {
		ends[k] = int(offs[k+1] - offs[0])
	}
	tmp := make([]int32, 0, len(flat))
	for len(ends) > 1 {
		tmp = tmp[:0]
		start, runs := 0, 0
		for k := 0; k < len(ends); k += 2 {
			if k+1 < len(ends) {
				tmp = mergeSorted(tmp, buf[start:ends[k]], buf[ends[k]:ends[k+1]])
				start = ends[k+1]
			} else {
				tmp = append(tmp, buf[start:ends[k]]...)
			}
			ends[runs] = len(tmp)
			runs++
		}
		ends = ends[:runs]
		buf, tmp = tmp, buf
	}
	return buf
}

// mergeSorted appends the sorted union of sorted, duplicate-free a and b
// to dst.
func mergeSorted(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// intersectSorted keeps, in place, the elements of sorted a that sorted b
// also holds.
func intersectSorted(a, b []int32) []int32 {
	out := a[:0]
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) {
			break
		}
		if b[j] == v {
			out = append(out, v)
			j++
		}
	}
	return out
}

// findNumericAttrs is findNumericAttrs of Algorithm 2: every non-key
// numeric attribute with at least one value satisfying "attr op n" (an
// empty op is "="), i.e. whose predicate passes exec(c) ≠ ∅.
func (ci *candidateIndex) findNumericAttrs(n float64, op string) []*numAttrIndex {
	if op == "" {
		op = "="
	}
	var out []*numAttrIndex
	for i := range ci.numAttrs {
		na := &ci.numAttrs[i]
		if na.anyMatch(op, n) {
			out = append(out, na)
		}
	}
	return out
}

// anyMatch reports whether any stored value v satisfies "v op n". Unknown
// operators (including LIKE against numbers) match nothing.
func (na *numAttrIndex) anyMatch(op string, n float64) bool {
	vals := na.values
	if len(vals) == 0 {
		return false
	}
	switch op {
	case "=":
		i := sort.SearchFloat64s(vals, n)
		return i < len(vals) && vals[i] == n
	case "!=":
		return len(vals) > 1 || vals[0] != n
	case "<":
		return vals[0] < n
	case "<=":
		return vals[0] <= n
	case ">":
		return vals[len(vals)-1] > n
	case ">=":
		return vals[len(vals)-1] >= n
	default:
		return false
	}
}
