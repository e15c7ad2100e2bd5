package embedding

import (
	"math"
	"slices"

	"templar/internal/stem"
)

// Vocab interns the tokens of a fixed phrase set (schema labels and column
// values) against one Model, so phrase similarity runs over token IDs with
// no splitting, stemming or hashing per pair. It stores one entry per
// distinct lowercase token: its stem ID, a sparse trigram vector in one
// flat arena and the vector's norm; each stem ID carries its lexicon row.
// Every stem of the model's lexicon is interned too, so a query token the
// vocabulary has never seen still finds its lexicon entries.
//
// Scores are bit-identical to Model.Similarity. Trigram components are
// small integers, so the sparse dot product and the squared norms are
// exact whatever the summation order, and TokenSimilarity is symmetric, so
// one query × phrase token matrix yields both directional averages.
//
// A Vocab is built single-threaded with AppendTokens and is read-only, and
// safe for concurrent use, after that. It copies the model's lexicon when
// it is created: later AddSynonym calls do not reach it.
type Vocab struct {
	lexOnly bool
	ids     map[string]int32 // token → token ID
	toks    []vocabToken     // by token ID
	tri     []trigram        // trigram arena; toks[i] owns tri[triLo:triHi]
	stemIDs map[string]int32 // stem → stem ID
	stems   []string         // by stem ID
	lexOff  []int32          // stem s's lexicon row is lex[lexOff[s]:lexOff[s+1]]
	lex     []lexCell
}

type vocabToken struct {
	stem         int32
	triLo, triHi int32
	norm2        int64   // squared norm of the trigram vector
	norm         float64 // math.Sqrt(norm2)
}

// trigram is one nonzero component of a token's hashed trigram vector.
type trigram struct {
	idx int32
	n   int32
}

// lexCell is one lexicon entry seen from one of its stems.
type lexCell struct {
	stem int32 // the other stem
	sim  float64
}

// NewVocab returns an empty vocabulary over m's lexicon and mode.
func NewVocab(m *Model) *Vocab {
	v := &Vocab{
		lexOnly: m.lexOnly,
		ids:     make(map[string]int32),
		stemIDs: make(map[string]int32),
	}
	type entry struct {
		a, b int32
		sim  float64
	}
	entries := make([]entry, 0, 2*len(m.lex))
	for k, sim := range m.lex {
		a, b := v.internStem(k.a), v.internStem(k.b)
		entries = append(entries, entry{a, b, sim}, entry{b, a, sim})
	}
	slices.SortFunc(entries, func(x, y entry) int {
		if x.a != y.a {
			return int(x.a - y.a)
		}
		return int(x.b - y.b)
	})
	v.lexOff = make([]int32, len(v.stems)+1)
	v.lex = make([]lexCell, len(entries))
	for i, e := range entries {
		v.lexOff[e.a+1]++
		v.lex[i] = lexCell{e.b, e.sim}
	}
	for s := 1; s < len(v.lexOff); s++ {
		v.lexOff[s] += v.lexOff[s-1]
	}
	return v
}

func (v *Vocab) internStem(s string) int32 {
	if id, ok := v.stemIDs[s]; ok {
		return id
	}
	id := int32(len(v.stems))
	v.stemIDs[s] = id
	v.stems = append(v.stems, s)
	return id
}

// lexRow returns the lexicon row of a stem; stems interned after
// construction have none.
func (v *Vocab) lexRow(s int32) []lexCell {
	if int(s)+1 >= len(v.lexOff) {
		return nil
	}
	return v.lex[v.lexOff[s]:v.lexOff[s+1]]
}

// AppendTokens interns every token of phrase, split as Model.Similarity
// splits it, and appends their IDs to dst in phrase order, repeats
// included. It is for building the vocabulary only: it must not run
// concurrently with any other use of v.
func (v *Vocab) AppendTokens(dst []int32, phrase string) []int32 {
	var buf [64]byte
	forEachToken(phrase, buf[:0], func(tok []byte) {
		id, ok := v.ids[string(tok)]
		if !ok {
			id = v.intern(string(tok))
		}
		dst = append(dst, id)
	})
	return dst
}

func (v *Vocab) intern(tok string) int32 {
	id := int32(len(v.toks))
	v.ids[tok] = id
	t := vocabToken{stem: v.internStem(stem.Stem(tok)), triLo: int32(len(v.tri))}
	vec := trigramCounts(tok)
	for i, n := range vec {
		if n != 0 {
			v.tri = append(v.tri, trigram{int32(i), n})
			t.norm2 += int64(n) * int64(n)
		}
	}
	t.triHi = int32(len(v.tri))
	t.norm = math.Sqrt(float64(t.norm2))
	v.toks = append(v.toks, t)
	return id
}

// StemOf returns the stem of a token ID.
func (v *Vocab) StemOf(tok int32) string { return v.stems[v.toks[tok].stem] }

// Query is one phrase resolved against a Vocab for scoring: per token its
// vocabulary ID (or none), stem, lexicon row and dense trigram vector.
// Tokens the vocabulary lacks are computed into the Query's own storage,
// so a Query reused across calls stops allocating once it has grown. A
// Query is not safe for concurrent use.
type Query struct {
	v     *Vocab
	toks  []queryToken
	stems []string
	col   []float64 // column maxima scratch, one per phrase token
	buf   []byte
}

type queryToken struct {
	id, stem int32 // -1 when not in the vocabulary
	lex      []lexCell
	norm2    int64
	norm     float64
	vec      [dim]int32
}

// Resolve splits phrase as Model.Similarity does and resolves each token
// against v into q, replacing what q held.
func (v *Vocab) Resolve(q *Query, phrase string) {
	q.v = v
	q.toks = q.toks[:0]
	q.stems = q.stems[:0]
	q.buf = forEachToken(phrase, q.buf[:0], func(tok []byte) {
		q.toks = append(q.toks, queryToken{})
		qt := &q.toks[len(q.toks)-1]
		if id, ok := v.ids[string(tok)]; ok {
			t := &v.toks[id]
			qt.id, qt.stem, qt.norm2, qt.norm = id, t.stem, t.norm2, t.norm
			for _, c := range v.tri[t.triLo:t.triHi] {
				qt.vec[c.idx] = c.n
			}
			qt.lex = v.lexRow(t.stem)
			q.stems = append(q.stems, v.stems[t.stem])
			return
		}
		s := stem.Stem(string(tok))
		qt.id, qt.stem = -1, -1
		if sid, ok := v.stemIDs[s]; ok {
			qt.stem = sid
			qt.lex = v.lexRow(sid)
		}
		qt.vec = trigramCounts(string(tok))
		for _, n := range qt.vec {
			qt.norm2 += int64(n) * int64(n)
		}
		qt.norm = math.Sqrt(float64(qt.norm2))
		q.stems = append(q.stems, s)
	})
}

// Stems returns the stem of every resolved token, in phrase order. The
// slice is q's own and is overwritten by the next Resolve.
func (q *Query) Stems() []string { return q.stems }

// Similarity scores the resolved phrase against a phrase of token IDs of
// the same vocabulary, bit-identical to Model.Similarity on the two
// phrases' text. Empty phrases score 0.
func (q *Query) Similarity(phrase []int32) float64 {
	if len(q.toks) == 0 || len(phrase) == 0 {
		return 0
	}
	v := q.v
	col := q.col[:0]
	for range phrase {
		col = append(col, 0)
	}
	q.col = col
	var rows float64
	for i := range q.toks {
		qt := &q.toks[i]
		best := 0.0
		for j, id := range phrase {
			s := v.tokenSimilarity(qt, id)
			if s > best {
				best = s
			}
			if s > col[j] {
				col[j] = s
			}
		}
		rows += best
	}
	var cols float64
	for _, s := range col {
		cols += s
	}
	return (rows/float64(len(q.toks)) + cols/float64(len(phrase))) / 2
}

// tokenSimilarity is Model.TokenSimilarity of a resolved query token and
// a vocabulary token.
func (v *Vocab) tokenSimilarity(qt *queryToken, id int32) float64 {
	if qt.id == id {
		return 1
	}
	t := &v.toks[id]
	if qt.stem == t.stem {
		return 1
	}
	for _, c := range qt.lex {
		if c.stem == t.stem {
			return c.sim
		}
	}
	if v.lexOnly || qt.norm2 == 0 || t.norm2 == 0 {
		return 0
	}
	var dot int64
	for _, c := range v.tri[t.triLo:t.triHi] {
		dot += int64(qt.vec[c.idx]) * int64(c.n)
	}
	cos := float64(dot) / (qt.norm * t.norm)
	if cos > 1 {
		cos = 1
	}
	if cos < 0 {
		cos = 0
	}
	return cos
}

// forEachToken calls fn with each token of s — lowercased, split on
// non-alphanumerics — built in buf, which it returns for reuse. fn must
// not retain its argument.
func forEachToken(s string, buf []byte, fn func(tok []byte)) []byte {
	cur := buf[:0]
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			cur = append(cur, c)
		case c >= 'A' && c <= 'Z':
			cur = append(cur, c+'a'-'A')
		default:
			if len(cur) > 0 {
				fn(cur)
				cur = cur[:0]
			}
		}
	}
	if len(cur) > 0 {
		fn(cur)
	}
	return cur
}
