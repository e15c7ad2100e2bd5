package embedding

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"templar/internal/xrand"
)

func TestTokenize(t *testing.T) {
	got := splitTokens("Saving Private Ryan (1998)")
	want := []string{"saving", "private", "ryan", "1998"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splitTokens = %v, want %v", got, want)
	}
	if got := splitTokens("publication_keyword.ID"); !reflect.DeepEqual(got, []string{"publication", "keyword", "id"}) {
		t.Fatalf("splitTokens = %v", got)
	}
	if len(splitTokens("")) != 0 || len(splitTokens("!!!")) != 0 {
		t.Fatal("empty tokenization")
	}
}

// vocabWords is the word pool of the seeded phrases: lexicon words and
// their inflections (stem and lexicon hits), schema-like names, short and
// digit tokens, and tokens no lexicon holds.
var vocabWords = []string{
	"paper", "papers", "Papers", "journal", "journals", "publication", "title", "name",
	"author", "authors", "writes", "writing", "domain", "area", "citation", "cite",
	"film", "films", "movie", "tv", "series", "director", "directed", "business",
	"restaurant", "stars", "rating", "year", "after", "count", "number", "x", "ab",
	"1998", "2000", "3d", "directing", "directs", "pizza", "seattle", "databases",
}

// randomWord draws a pool word, or a fresh lowercase/uppercase/digit
// string of 1–12 bytes that the vocabulary is unlikely to hold.
func randomWord(r *xrand.Rand) string {
	if r.Intn(3) > 0 {
		return vocabWords[r.Intn(len(vocabWords))]
	}
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, 1+r.Intn(12))
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// randomPhrase joins n words with separators the tokenizer splits on.
func randomPhrase(r *xrand.Rand, n int) string {
	seps := []string{" ", "_", ".", "  ", "-", "(", "é"}
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 || r.Intn(4) == 0 {
			b.WriteString(seps[r.Intn(len(seps))])
		}
		b.WriteString(randomWord(r))
	}
	return b.String()
}

// checkVocab holds the interned similarity of every query against every
// phrase to Model.Similarity, bit for bit. The phrases are interned into
// one vocabulary; the queries are resolved against it afterwards, so their
// tokens may be unseen.
func checkVocab(t *testing.T, m *Model, phrases, queries []string) {
	t.Helper()
	v := NewVocab(m)
	toks := make([][]int32, len(phrases))
	for i, p := range phrases {
		toks[i] = v.AppendTokens(nil, p)
	}
	var q Query
	for _, a := range queries {
		v.Resolve(&q, a)
		for i, b := range phrases {
			got, want := q.Similarity(toks[i]), m.Similarity(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("interned σ(%q, %q) = %v, Model.Similarity = %v", a, b, got, want)
			}
		}
	}
}

// TestVocabSimilarityMatchesModel holds Query.Similarity to
// Model.Similarity with != on float64 over seeded random phrases: query
// tokens the vocabulary never saw, stem and lexicon pairs, the full and
// the lexicon-only (NaLIR) model and a lexicon-free one, a lexicon entry
// added for stems no phrase holds, empty and punctuation-only phrases, and
// phrases longer than any fixed buffer.
func TestVocabSimilarityMatchesModel(t *testing.T) {
	r := xrand.New(11)
	var phrases, queries []string
	for i := 0; i < 150; i++ {
		phrases = append(phrases, randomPhrase(r, 1+r.Intn(4)))
		queries = append(queries, randomPhrase(r, 1+r.Intn(4)))
	}
	long := randomPhrase(r, 80) + " " + strings.Repeat("a", 200)
	edge := []string{"", "!!!", " _ ", long, "papers papers", "PAPER", "x"}
	phrases = append(phrases, edge...)
	queries = append(queries, edge...)
	queries = append(queries, randomPhrase(r, 90))

	custom := New()
	custom.AddSynonym("zebras", "paper", 0.4)
	custom.AddSynonym("quokka", "wombat", 0.7)
	queries = append(queries, "zebra papers", "quokkas wombat")
	for _, tc := range []struct {
		name string
		m    *Model
	}{{"full", New()}, {"lexicon-only", NewLexiconOnly()}, {"no-lexicon", newEmpty()}, {"custom-lexicon", custom}} {
		t.Run(tc.name, func(t *testing.T) { checkVocab(t, tc.m, phrases, queries) })
	}
}

// FuzzVocabSimilarity checks that interned similarity equals
// Model.Similarity bit for bit on arbitrary phrase pairs, with b interned
// into a vocabulary and a resolved against it, under the full and the
// lexicon-only model.
func FuzzVocabSimilarity(f *testing.F) {
	for _, s := range [][2]string{
		{"papers", "publication title"},
		{"after 2000", "publication year"},
		{"Films directed", "tv_series"},
		{"", "journal"},
		{"!!!", "???"},
		{"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "a a a"},
		{"\xff\x00paper", "PAPERS\xfe"},
	} {
		f.Add(s[0], s[1])
	}
	models := []*Model{New(), NewLexiconOnly()}
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, m := range models {
			checkVocab(t, m, []string{"journal name", "publication title", b}, []string{a, b})
		}
	})
}

// TestQueryStemsAndReuse: a Query lists its tokens' stems in phrase order,
// for seen and unseen tokens alike, and a reused Query forgets its previous
// phrase.
func TestQueryStemsAndReuse(t *testing.T) {
	m := New()
	v := NewVocab(m)
	p := v.AppendTokens(nil, "publication title")
	var q Query
	v.Resolve(&q, "Papers on Publications zzyzx")
	if got, want := q.Stems(), []string{"paper", "on", "public", "zzyzx"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Stems = %v, want %v", got, want)
	}
	v.Resolve(&q, "titles")
	if got := q.Stems(); !reflect.DeepEqual(got, []string{"titl"}) {
		t.Fatalf("Stems after reuse = %v", got)
	}
	if got, want := q.Similarity(p), m.Similarity("titles", "publication title"); got != want {
		t.Fatalf("σ after reuse = %v, want %v", got, want)
	}
}
