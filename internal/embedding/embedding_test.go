package embedding

import (
	"testing"
	"testing/quick"
)

func TestTokenSimilarityIdentity(t *testing.T) {
	m := New()
	for _, w := range []string{"paper", "journal", "databases", "x"} {
		if s := m.TokenSimilarity(w, w); s != 1 {
			t.Errorf("TokenSimilarity(%q, %q) = %v, want 1", w, w, s)
		}
	}
	// Case-insensitive and stem-equal tokens are identical.
	if s := m.TokenSimilarity("Papers", "paper"); s != 1 {
		t.Errorf("stem-equal similarity = %v, want 1", s)
	}
}

func TestLexiconAmbiguityFromExample1(t *testing.T) {
	// The deliberate confusion of Example 1: under the similarity model
	// alone, "papers" matches journal at least as strongly as publication.
	m := New()
	j := m.TokenSimilarity("papers", "journal")
	p := m.TokenSimilarity("papers", "publication")
	if j <= p {
		t.Errorf("expected sim(papers, journal)=%v > sim(papers, publication)=%v (Example 1 ambiguity)", j, p)
	}
	if p < 0.5 {
		t.Errorf("sim(papers, publication)=%v too low to be a candidate", p)
	}
}

func TestSimilarityRange(t *testing.T) {
	m := New()
	f := func(a, b string) bool {
		s := m.Similarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSimilaritySymmetry(t *testing.T) {
	m := New()
	pairs := [][2]string{
		{"papers after 2000", "publication title"},
		{"restaurant businesses", "business name"},
		{"movies directed by Spielberg", "director name"},
		{"", "x"},
	}
	for _, p := range pairs {
		a := m.Similarity(p[0], p[1])
		b := m.Similarity(p[1], p[0])
		if a != b {
			t.Errorf("Similarity(%q, %q) = %v != %v", p[0], p[1], a, b)
		}
	}
}

func TestSimilarityEmptyPhrases(t *testing.T) {
	m := New()
	if m.Similarity("", "journal") != 0 || m.Similarity("journal", "") != 0 || m.Similarity("", "") != 0 {
		t.Error("empty phrases must score 0")
	}
	if m.Similarity("!!!", "journal") != 0 {
		t.Error("non-alphanumeric phrases must score 0")
	}
}

func TestPhraseAlignment(t *testing.T) {
	m := New()
	// A phrase containing the exact attribute words should beat an
	// unrelated phrase.
	good := m.Similarity("publication title", "publication.title")
	bad := m.Similarity("organization homepage", "publication.title")
	if good <= bad {
		t.Errorf("alignment failed: good=%v bad=%v", good, bad)
	}
	if good < 0.95 {
		t.Errorf("exact token overlap should be near 1, got %v", good)
	}
}

func TestMorphologicalSimilarityViaTrigrams(t *testing.T) {
	m := newEmpty()
	related := m.TokenSimilarity("directing", "directs")
	unrelated := m.TokenSimilarity("directing", "pizza")
	if related <= unrelated {
		t.Errorf("trigram model: related=%v unrelated=%v", related, unrelated)
	}
}

func TestAddSynonymOverridesAndClamps(t *testing.T) {
	m := newEmpty()
	m.AddSynonym("foo", "bar", 0.3)
	if s := m.TokenSimilarity("foo", "bar"); s != 0.3 {
		t.Fatalf("synonym = %v", s)
	}
	m.AddSynonym("foo", "bar", 0.9)
	if s := m.TokenSimilarity("foo", "bar"); s != 0.9 {
		t.Fatalf("override = %v", s)
	}
	m.AddSynonym("a", "b", 5)
	if s := m.TokenSimilarity("a", "b"); s != 1 {
		t.Fatalf("clamp high = %v", s)
	}
	m.AddSynonym("c", "d", -5)
	if s := m.TokenSimilarity("c", "d"); s != 0 {
		t.Fatalf("clamp low = %v", s)
	}
	// Symmetric storage.
	if m.TokenSimilarity("bar", "foo") != 0.9 {
		t.Fatal("synonyms must be symmetric")
	}
}

func TestSynonymsAreStemmed(t *testing.T) {
	m := newEmpty()
	m.AddSynonym("papers", "journals", 0.8)
	if s := m.TokenSimilarity("paper", "journal"); s != 0.8 {
		t.Fatalf("stemmed synonym lookup = %v", s)
	}
}

func TestDeterminism(t *testing.T) {
	m1, m2 := New(), New()
	phrases := [][2]string{
		{"papers in the Databases domain", "journal.name"},
		{"restaurants in Seattle", "business.city"},
	}
	for _, p := range phrases {
		if m1.Similarity(p[0], p[1]) != m2.Similarity(p[0], p[1]) {
			t.Fatalf("nondeterministic similarity for %v", p)
		}
	}
}

// TestLexiconDiagnostics: New loads the curated lexicon, stored once per
// unordered stem pair, so every entry scores the same in both orders.
func TestLexiconDiagnostics(t *testing.T) {
	m := New()
	if len(m.lex) == 0 {
		t.Fatal("base lexicon empty")
	}
	for _, e := range baseLexicon {
		if ab, ba := m.TokenSimilarity(e.a, e.b), m.TokenSimilarity(e.b, e.a); ab != ba || ab == 0 {
			t.Fatalf("%s~%s scores %v forward, %v reversed", e.a, e.b, ab, ba)
		}
	}
}

// newEmpty returns a model with no lexicon entries (pure trigram vectors).
func newEmpty() *Model { return &Model{lex: make(map[pairKey]float64)} }

func TestSnakeCaseSplitting(t *testing.T) {
	m := New()
	// publication_keyword splits into tokens so "keywords of papers" can
	// align with the junction table name.
	s := m.Similarity("publication keyword", "publication_keyword")
	if s < 0.95 {
		t.Errorf("snake_case alignment = %v", s)
	}
}

func BenchmarkSimilarity(b *testing.B) {
	m := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Similarity("papers in the Databases domain", "publication title")
	}
}
