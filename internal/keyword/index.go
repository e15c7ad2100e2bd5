package keyword

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"templar/internal/db"
	"templar/internal/schema"
	"templar/internal/stem"
)

// candidateIndex is the one implementation of Algorithm 2's candidate
// retrieval (§V-A): the FROM-context relation list, the SELECT-context
// non-key attribute list, findTextAttrs over a per-attribute inverted text
// index (sorted stemmed tokens with value postings), and findNumericAttrs
// over the sorted distinct values of every non-key numeric attribute. It
// is built once, at NewMapper time, from the database's rows; the database
// itself keeps no index.
//
// The index is immutable after construction and therefore safe for
// concurrent use. Text and numeric probes list attributes by sorted
// relation name, then declaration order; FROM and SELECT candidates are in
// schema insertion order. TestCandidateIndexMatchesDatabaseProbes holds
// every probe to a plain scan of the rows.
type candidateIndex struct {
	// fromRels is the FROM-context candidate list (schema insertion order).
	fromRels []string
	// selectAttrs is the SELECT-context candidate list: every non-key
	// attribute in schema insertion order.
	selectAttrs []relAttr
	// textAttrs carries one inverted index per text attribute, ordered by
	// sorted relation name then attribute declaration order.
	textAttrs []textAttrIndex
	// numAttrs carries sorted distinct values per non-key numeric
	// attribute, in the same relation/attribute order.
	numAttrs []numAttrIndex
}

// relAttr is one (relation, attribute) pair; findNumericAttrs returns the
// numeric attributes a probe predicate selects rows of as relAttrs.
type relAttr struct {
	rel, attr string
}

// textMatch is one full-text hit: a text attribute and its distinct values
// that match every query stem.
type textMatch struct {
	relAttr
	values []string
}

// textAttrIndex is the inverted full-text index of one text attribute:
// the sorted stemmed token vocabulary with, per token, the sorted distinct
// values containing it. Prefix queries become a binary search over tokens
// instead of a scan of the whole vocabulary.
type textAttrIndex struct {
	relAttr
	relStem, attrStem string
	tokens            []string
	postings          [][]string
}

// numAttrIndex holds the sorted distinct values of one numeric attribute,
// so "does any row satisfy attr op n" is answered from the extremes and a
// binary search rather than a row scan.
type numAttrIndex struct {
	relAttr
	values []float64
}

// buildCandidateIndex constructs the index from a populated database.
// Primary-key columns and both ends of every FK-PK edge are key columns:
// surrogate ids are never the target of a user's keyword, so they are
// neither SELECT nor numeric-predicate candidates.
func buildCandidateIndex(database *db.Database) *candidateIndex {
	g := database.Schema()
	keys := make(map[relAttr]bool)
	for _, fk := range g.ForeignKeys() {
		keys[relAttr{fk.FromRel, fk.FromAttr}] = true
		keys[relAttr{fk.ToRel, fk.ToAttr}] = true
	}
	ci := &candidateIndex{fromRels: g.Relations()}
	for _, rn := range ci.fromRels {
		rel, _ := g.Relation(rn)
		for _, a := range rel.Attributes {
			ra := relAttr{rn, a.Name}
			if a.PrimaryKey {
				keys[ra] = true
			}
			if !keys[ra] {
				ci.selectAttrs = append(ci.selectAttrs, ra)
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
				ci.textAttrs = append(ci.textAttrs, buildTextIndex(t, ra, relStem))
			case a.Type == schema.Number && !keys[ra]:
				ci.numAttrs = append(ci.numAttrs, buildNumIndex(t.Rows(), col, ra))
			}
		}
	}
	return ci
}

// buildTextIndex maps every stemmed token of an attribute's distinct values
// to the values containing it, as sorted parallel slices. The values come
// sorted and distinct, so each posting list is built in order.
func buildTextIndex(t *db.Table, ra relAttr, relStem string) textAttrIndex {
	byToken := make(map[string][]string)
	for _, v := range t.DistinctValues(ra.attr) {
		for _, tok := range db.Tokenize(v) {
			s := stem.Stem(tok)
			if vals := byToken[s]; len(vals) == 0 || vals[len(vals)-1] != v {
				byToken[s] = append(vals, v)
			}
		}
	}
	idx := textAttrIndex{relAttr: ra, relStem: relStem, attrStem: stem.Stem(ra.attr)}
	idx.tokens = make([]string, 0, len(byToken))
	for tok := range byToken {
		idx.tokens = append(idx.tokens, tok)
	}
	sort.Strings(idx.tokens)
	idx.postings = make([][]string, len(idx.tokens))
	for i, tok := range idx.tokens {
		idx.postings[i] = byToken[tok]
	}
	return idx
}

// buildNumIndex collects the sorted distinct values of column col.
func buildNumIndex(rows [][]db.Value, col int, ra relAttr) numAttrIndex {
	vals := make([]float64, len(rows))
	for i, row := range rows {
		vals[i] = row[col].N
	}
	slices.Sort(vals)
	return numAttrIndex{relAttr: ra, values: slices.Clone(slices.Compact(vals))}
}

// findTextAttrs is findTextAttrs of Algorithm 2: boolean-mode "+tok*" AND
// semantics over every text attribute — each query stem must prefix some
// stemmed token of a matching value — returning the attributes with at
// least one matching distinct value. Query stems that exactly match the
// stemmed relation or attribute name are dropped for that attribute so
// they do not over-constrain the search (the "movie Saving Private Ryan"
// rule of §V-A); an attribute left with no query stems is skipped.
func (ci *candidateIndex) findTextAttrs(keyword string) []textMatch {
	rawTokens := db.Tokenize(keyword)
	if len(rawTokens) == 0 {
		return nil
	}
	stems := make([]string, len(rawTokens))
	for i, tok := range rawTokens {
		stems[i] = stem.Stem(tok)
	}
	var out []textMatch
	for i := range ci.textAttrs {
		ta := &ci.textAttrs[i]
		query := stems[:0:0]
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
			out = append(out, textMatch{ta.relAttr, vals})
		}
	}
	return out
}

// matchAll intersects, across query stems, the union of postings of tokens
// having the stem as a prefix. Results are sorted.
// Every list involved is sorted and duplicate-free, so both steps are
// merges: a stem's prefix-matching tokens are one contiguous run of the
// sorted vocabulary, their postings merge into one union, and each later
// stem's union is intersected into the running result in place. The result
// is a fresh slice; it never aliases a posting.
func (ta *textAttrIndex) matchAll(queryStems []string) []string {
	var result []string
	for i, qs := range queryStems {
		lo := sort.SearchStrings(ta.tokens, qs)
		hi := lo + sort.Search(len(ta.tokens)-lo, func(j int) bool {
			return !strings.HasPrefix(ta.tokens[lo+j], qs)
		})
		if lo == hi {
			return nil
		}
		lists := ta.postings[lo:hi]
		switch {
		case i == 0:
			result = unionSorted(lists)
		case len(lists) == 1:
			result = intersectSorted(result, lists[0])
		default:
			result = intersectSorted(result, unionSorted(lists))
		}
		if len(result) == 0 {
			return nil
		}
	}
	return result
}

// unionSorted returns the sorted union of sorted, duplicate-free lists as a
// fresh slice. Several lists are merged bottom-up: they start side by side
// in one buffer, and each pass merges neighbouring runs pairwise into a
// second buffer, so a short stem matching many tokens costs
// O(total·log(lists)) rather than a merge per list.
func unionSorted(lists [][]string) []string {
	if len(lists) == 1 {
		return append([]string(nil), lists[0]...)
	}
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	buf := make([]string, 0, n)
	ends := make([]int, len(lists)) // run i is buf[ends[i-1]:ends[i]]
	for i, l := range lists {
		buf = append(buf, l...)
		ends[i] = len(buf)
	}
	tmp := make([]string, 0, n)
	for len(ends) > 1 {
		tmp = tmp[:0]
		start, runs := 0, 0
		for i := 0; i < len(ends); i += 2 {
			if i+1 < len(ends) {
				tmp = mergeSorted(tmp, buf[start:ends[i]], buf[ends[i]:ends[i+1]])
				start = ends[i+1]
			} else {
				tmp = append(tmp, buf[start:ends[i]]...)
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
func mergeSorted(dst, a, b []string) []string {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := strings.Compare(a[i], b[j]); {
		case c < 0:
			dst = append(dst, a[i])
			i++
		case c > 0:
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
func intersectSorted(a, b []string) []string {
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
func (ci *candidateIndex) findNumericAttrs(n float64, op string) []relAttr {
	if op == "" {
		op = "="
	}
	var out []relAttr
	for i := range ci.numAttrs {
		na := &ci.numAttrs[i]
		if na.anyMatch(op, n) {
			out = append(out, na.relAttr)
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

// ---------------------------------------------------------------------------
// Bounded, concurrency-safe memo cache for embedding similarities.

// simCacheShards spreads lock contention across independent shards.
const simCacheShards = 16

// simKey is an unordered phrase pair; Model.Similarity is symmetric, so one
// entry serves both argument orders.
type simKey struct{ a, b string }

func makeSimKey(a, b string) simKey {
	if b < a {
		a, b = b, a
	}
	return simKey{a, b}
}

// simCache memoizes Model.Similarity results with a two-generation
// (current/previous) eviction scheme: when the current generation of a
// shard fills up it becomes the previous generation and a fresh map starts;
// entries hit in the previous generation are promoted. Memory is therefore
// bounded at roughly 2 × perShard × simCacheShards entries while hot pairs
// survive rotation indefinitely.
type simCache struct {
	perShard int
	shards   [simCacheShards]simShard
}

type simShard struct {
	mu        sync.Mutex
	cur, prev map[simKey]float64
}

func newSimCache(capacity int) *simCache {
	per := capacity / simCacheShards
	if per < 64 {
		per = 64
	}
	c := &simCache{perShard: per}
	for i := range c.shards {
		c.shards[i].cur = make(map[simKey]float64)
	}
	return c
}

func (c *simCache) shard(k simKey) *simShard {
	const prime = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(k.a); i++ {
		h = (h ^ uint32(k.a[i])) * prime
	}
	for i := 0; i < len(k.b); i++ {
		h = (h ^ uint32(k.b[i])) * prime
	}
	return &c.shards[h%simCacheShards]
}

func (c *simCache) get(k simKey) (float64, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.cur[k]; ok {
		return v, true
	}
	if v, ok := s.prev[k]; ok {
		s.promote(c.perShard, k, v)
		return v, true
	}
	return 0, false
}

func (c *simCache) put(k simKey, v float64) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.promote(c.perShard, k, v)
}

// promote inserts into the current generation, rotating first when full.
// Callers must hold mu.
func (s *simShard) promote(perShard int, k simKey, v float64) {
	if len(s.cur) >= perShard {
		s.prev = s.cur
		s.cur = make(map[simKey]float64, perShard)
	}
	s.cur[k] = v
}
