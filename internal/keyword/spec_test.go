package keyword

import (
	"testing"

	"templar/internal/fragment"
)

func TestParseSpecBasic(t *testing.T) {
	kws, err := ParseSpec("papers:select;Databases:where")
	if err != nil {
		t.Fatal(err)
	}
	if len(kws) != 2 {
		t.Fatalf("kws = %v", kws)
	}
	if kws[0].Text != "papers" || kws[0].Meta.Context != fragment.Select {
		t.Fatalf("kws[0] = %+v", kws[0])
	}
	if kws[1].Text != "Databases" || kws[1].Meta.Context != fragment.Where {
		t.Fatalf("kws[1] = %+v", kws[1])
	}
}

func TestParseSpecOperatorAndAggregate(t *testing.T) {
	kws, err := ParseSpec("papers:select:COUNT;after 2000:where:>")
	if err != nil {
		t.Fatal(err)
	}
	if len(kws[0].Meta.Aggs) != 1 || kws[0].Meta.Aggs[0] != "COUNT" {
		t.Fatalf("aggs = %v", kws[0].Meta.Aggs)
	}
	if kws[1].Meta.Op != ">" {
		t.Fatalf("op = %q", kws[1].Meta.Op)
	}
	// Lowercase aggregate and group flag.
	kws, err = ParseSpec("names:select:count+g")
	if err != nil {
		t.Fatal(err)
	}
	if kws[0].Meta.Aggs[0] != "COUNT" || !kws[0].Meta.GroupBy {
		t.Fatalf("kws[0] = %+v", kws[0])
	}
}

func TestParseSpecWhitespaceAndEmptyClauses(t *testing.T) {
	kws, err := ParseSpec(" papers : select ;; Databases : where ; ")
	if err != nil {
		t.Fatal(err)
	}
	if len(kws) != 2 || kws[0].Text != "papers" {
		t.Fatalf("kws = %v", kws)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		";;",
		"papers",
		"papers:select:COUNT:extra",
		"papers:nowhere",
		":select",
		"papers:select:",
		"papers:select:BOGUS",
		"x:where:>+g",
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q): expected error", spec)
		}
	}
}

func TestParseSpecFromContext(t *testing.T) {
	kws, err := ParseSpec("publication:from")
	if err != nil {
		t.Fatal(err)
	}
	if kws[0].Meta.Context != fragment.From {
		t.Fatalf("context = %v", kws[0].Meta.Context)
	}
}

// TestKeywordValidate pins the metadata a keyword may carry into SQL:
// ParseSpec's operators and upper-case aggregates pass, and anything else
// (SQL text, a lower-case aggregate, an operator the spec form lacks) is
// rejected before it reaches the mapper.
func TestKeywordValidate(t *testing.T) {
	for _, meta := range []Metadata{
		{},
		{Op: "="}, {Op: "!="}, {Op: "<"}, {Op: "<="}, {Op: ">"}, {Op: ">="},
		{Aggs: []string{"COUNT"}}, {Aggs: []string{"MAX"}, GroupBy: true},
	} {
		if err := (Keyword{Text: "x", Meta: meta}).Validate(); err != nil {
			t.Errorf("%+v: %v", meta, err)
		}
	}
	for _, meta := range []Metadata{
		{Op: "; DROP TABLE u; --"}, {Op: "<>"}, {Op: "LIKE"}, {Op: "=="},
		{Aggs: []string{"x) FROM t; DROP TABLE u; --"}}, {Aggs: []string{"count"}},
		{Aggs: []string{"COUNT", "BOGUS"}}, {Aggs: []string{""}},
	} {
		if err := (Keyword{Text: "x", Meta: meta}).Validate(); err == nil {
			t.Errorf("%+v: Validate accepted it", meta)
		}
	}
}
