package keyword

import (
	"reflect"
	"strings"
	"testing"

	"templar/internal/fragment"
)

// FuzzParseSpec asserts ParseSpec's contract on arbitrary input: an error,
// or a non-empty keyword list — never a panic. The spec field of every
// v1/v2 keyword body reaches ParseSpec straight from the wire, so a crash
// here would be a remotely triggerable one. A successful parse must also
// render back to a spec that parses to the same keywords.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		"papers:select;Databases:where",
		"papers:select:COUNT;after 2000:where:>",
		"names:select:count+g",
		"author:from; VLDB : where : != ",
		"citations:select:SUM+g;;",
		"papers",
		"papers:select:>+g",
		"a:b:c:d",
		":select",
		"x:where:",
		";;;",
		"\x00:\xff",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		kws, err := ParseSpec(spec)
		if err != nil {
			if kws != nil {
				t.Fatalf("ParseSpec(%q) returned keywords with error %v", spec, err)
			}
			if !strings.HasPrefix(err.Error(), "keyword: ") {
				t.Fatalf("ParseSpec(%q) error %q lacks the package prefix", spec, err)
			}
			return
		}
		if len(kws) == 0 {
			t.Fatalf("ParseSpec(%q) returned no keywords and no error", spec)
		}
		clauses := make([]string, len(kws))
		for i, kw := range kws {
			if strings.TrimSpace(kw.Text) == "" {
				t.Fatalf("ParseSpec(%q) keyword %d has empty text", spec, i)
			}
			clauses[i] = renderClause(t, kw)
		}
		rendered := strings.Join(clauses, ";")
		again, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("rendering of %q is not re-parseable: %q: %v", spec, rendered, err)
		}
		if !reflect.DeepEqual(again, kws) {
			t.Fatalf("round trip diverged: %q -> %q\nfirst:  %+v\nsecond: %+v", spec, rendered, kws, again)
		}
	})
}

// renderClause writes one keyword back in ParseSpec's clause form.
func renderClause(t *testing.T, kw Keyword) string {
	t.Helper()
	var ctx string
	switch kw.Meta.Context {
	case fragment.Select:
		ctx = "select"
	case fragment.Where:
		ctx = "where"
	case fragment.From:
		ctx = "from"
	default:
		t.Fatalf("keyword %+v has context %v", kw, kw.Meta.Context)
	}
	clause := kw.Text + ":" + ctx
	switch {
	case kw.Meta.Op != "" && len(kw.Meta.Aggs) > 0:
		t.Fatalf("keyword %+v carries both an operator and an aggregate", kw)
	case kw.Meta.Op != "":
		clause += ":" + kw.Meta.Op
	case len(kw.Meta.Aggs) == 1:
		clause += ":" + kw.Meta.Aggs[0]
		if kw.Meta.GroupBy {
			clause += "+g"
		}
	case len(kw.Meta.Aggs) > 1 || kw.Meta.GroupBy:
		t.Fatalf("keyword %+v has a malformed aggregate", kw)
	}
	return clause
}
