package main

import (
	"fmt"
	"math"
	"strings"

	"templar/internal/datasets"
	"templar/internal/db"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/workload"
	"templar/internal/xrand"
	"templar/pkg/api"
)

// Sizes of the grown synth database and its logs. The log size sets the
// cost of one republish (an O(V+E) snapshot compile) to tens of
// milliseconds; the keyword and bag pools are sized so that a run's
// distinct inputs far exceed the similarity cache (65,536 entries) and
// the infer cache (2,048 entries).
const (
	synthAuthors      = 20000
	synthPublications = 12000
	synthOrgs         = 400
	synthDomains      = 400
	synthTopics       = 2000
	synthJournals     = 300
	synthConferences  = 300
	synthLogQueries   = 20000
	synthAppendPool   = 4000
	synthKeywordPool  = 60000
	// streamLen is the length of the measured read stream, and sideLen of
	// the warm-up and ladder streams; a closed loop that outruns its
	// stream wraps around.
	streamLen = 80000
	sideLen   = 20000
)

// synthName is the tenant name of the grown MAS database.
const synthName = "synth"

// goldTenant is one gold dataset served at an obscurity level that has a
// committed golden corpus.
type goldTenant struct {
	ds *datasets.Dataset
	ob fragment.Obscurity
}

// goldLevels fixes each gold tenant's obscurity level, one per level so
// every fragment form is served.
var goldLevels = []struct {
	name string
	ob   fragment.Obscurity
}{
	{"MAS", fragment.NoConstOp},
	{"Yelp", fragment.NoConst},
	{"IMDB", fragment.Full},
}

// synthData is everything generated for the synth tenant: the grown
// database, its SQL log, and the request material its workloads draw from.
type synthData struct {
	db      *db.Database
	log     []string
	profile *workload.Profile
}

// inputs is the generated material of one run. The program under test
// only ever sees these values.
type inputs struct {
	gold  []goldTenant
	synth *synthData
	// reads is the measured read stream; warm is a disjoint stream of the
	// same distribution used to reach steady state before timing; ladder
	// feeds the traced run's layer ladder.
	reads, warm, ladder []workload.Request
	// appends is the log-append stream of synth-write and of the append
	// probe.
	appends []workload.Request
}

// readMix is the v2 read mix: workload.DefaultMix's read weights and
// translate batch size, with no log appends.
func readMix() workload.Mix {
	m := workload.DefaultMix()
	m.LogAppend = 0
	return m
}

// generate builds the inputs of a workload from a seed.
func generate(wl string, seed uint64) (*inputs, error) {
	in := &inputs{}
	for _, g := range goldLevels {
		ds, ok := datasets.ByName(g.name)
		if !ok {
			return nil, fmt.Errorf("unknown dataset %s", g.name)
		}
		in.gold = append(in.gold, goldTenant{ds: ds, ob: g.ob})
	}
	in.synth = generateSynth(seed)

	var profiles []*workload.Profile
	if wl == wlGoldHot {
		for _, g := range in.gold {
			p, err := workload.MineProfile(g.ds)
			if err != nil {
				return nil, err
			}
			profiles = append(profiles, p)
		}
	} else {
		profiles = []*workload.Profile{in.synth.profile}
	}
	stream := func(s uint64, n int) ([]workload.Request, error) {
		g, err := workload.NewGenerator(profiles, readMix(), s)
		if err != nil {
			return nil, err
		}
		return g.Generate(n), nil
	}
	var err error
	if in.reads, err = stream(seed, streamLen); err != nil {
		return nil, err
	}
	if in.warm, err = stream(seed^0x5741524d, sideLen); err != nil {
		return nil, err
	}
	if in.ladder, err = stream(seed^0x4c414444, sideLen); err != nil {
		return nil, err
	}
	in.appends = appendStream(in.synth.profile.SQL, xrand.New(seed^0x4150504e))
	if wl == wlSynthWrite {
		// One append after every appendEvery reads, drawn in order from
		// the front of the append stream.
		mixed := make([]workload.Request, 0, len(in.reads)+len(in.reads)/appendEvery)
		for i, r := range in.reads {
			mixed = append(mixed, r)
			if (i+1)%appendEvery == 0 {
				mixed = append(mixed, in.appends[(i+1)/appendEvery-1])
			}
		}
		in.reads = mixed
	}
	return in, nil
}

// ---------------------------------------------------------------------------
// The synth tenant.

// masShape is one gold MAS query shape (internal/datasets' MAS templates)
// re-instantiated with constants drawn from the grown database.
type masShape struct {
	weight int
	build  func(p *synthPools, pick func(n int) int) (api.KeywordsInput, string)
}

// synthPools holds the grown database's value vocabularies.
type synthPools struct {
	authors, orgs, domains, topics, journals, conferences []string
}

var masShapes = []masShape{
	{30, func(p *synthPools, pick func(int) int) (api.KeywordsInput, string) {
		v := p.domains[pick(len(p.domains))]
		return kws(sel("papers"), where(v)), fmt.Sprintf("SELECT p.title FROM publication p, publication_keyword pk, keyword k, domain_keyword dk, domain d WHERE d.name = '%s' AND pk.pid = p.pid AND pk.kid = k.kid AND dk.kid = k.kid AND dk.did = d.did", v)
	}},
	{33, func(p *synthPools, pick func(int) int) (api.KeywordsInput, string) {
		y := 1990 + pick(26)
		return kws(sel("papers"), api.Keyword{Text: fmt.Sprintf("after %d", y), Context: "where", Op: ">"}), fmt.Sprintf("SELECT p.title FROM publication p WHERE p.year > %d", y)
	}},
	{20, func(p *synthPools, pick func(int) int) (api.KeywordsInput, string) {
		v := p.journals[pick(len(p.journals))]
		return kws(sel("publications"), where(v)), fmt.Sprintf("SELECT p.title FROM publication p, journal j WHERE j.name = '%s' AND p.jid = j.jid", v)
	}},
	{20, func(p *synthPools, pick func(int) int) (api.KeywordsInput, string) {
		v := p.conferences[pick(len(p.conferences))]
		return kws(sel("articles"), where(v)), fmt.Sprintf("SELECT p.title FROM publication p, conference c WHERE c.name = '%s' AND p.cid = c.cid", v)
	}},
	{20, func(p *synthPools, pick func(int) int) (api.KeywordsInput, string) {
		v := p.orgs[pick(len(p.orgs))]
		return kws(sel("researchers"), where(v)), fmt.Sprintf("SELECT a.name FROM author a, organization o WHERE o.name = '%s' AND a.oid = o.oid", v)
	}},
	{20, func(p *synthPools, pick func(int) int) (api.KeywordsInput, string) {
		v := p.authors[pick(len(p.authors))]
		return kws(api.Keyword{Text: "papers", Context: "select", Agg: "COUNT"}, where(v)), fmt.Sprintf("SELECT COUNT(p.title) FROM publication p, writes w, author a WHERE a.name = '%s' AND w.aid = a.aid AND w.pid = p.pid", v)
	}},
	{20, func(p *synthPools, pick func(int) int) (api.KeywordsInput, string) {
		v := p.topics[pick(len(p.topics))]
		return kws(sel("paper titles"), where(v)), fmt.Sprintf("SELECT p.title FROM publication p, publication_keyword pk, keyword k WHERE k.keyword = '%s' AND pk.pid = p.pid AND pk.kid = k.kid", v)
	}},
	{15, func(p *synthPools, pick func(int) int) (api.KeywordsInput, string) {
		v1, v2 := p.authors[pick(len(p.authors))], p.authors[pick(len(p.authors))]
		return kws(sel("papers"), where(v1), where(v2)), fmt.Sprintf("SELECT p.title FROM publication p, writes w1, writes w2, author a1, author a2 WHERE a1.name = '%s' AND a2.name = '%s' AND w1.aid = a1.aid AND w1.pid = p.pid AND w2.aid = a2.aid AND w2.pid = p.pid", v1, v2)
	}},
	{8, func(p *synthPools, pick func(int) int) (api.KeywordsInput, string) {
		v := p.domains[pick(len(p.domains))]
		return kws(sel("journals"), where(v)), fmt.Sprintf("SELECT j.name FROM journal j, domain_journal dj, domain d WHERE d.name = '%s' AND dj.jid = j.jid AND dj.did = d.did", v)
	}},
	{8, func(p *synthPools, pick func(int) int) (api.KeywordsInput, string) {
		y := 1990 + pick(26)
		return kws(sel("journals"), api.Keyword{Text: fmt.Sprintf("after %d", y), Context: "where", Op: ">"}), fmt.Sprintf("SELECT j.name FROM journal j, publication p WHERE p.year > %d AND p.jid = j.jid", y)
	}},
}

func kws(k ...api.Keyword) api.KeywordsInput { return api.KeywordsInput{Keywords: k} }
func sel(text string) api.Keyword            { return api.Keyword{Text: text, Context: "select"} }
func where(text string) api.Keyword          { return api.Keyword{Text: text, Context: "where"} }

// shapeTotal is the summed shape weight.
func shapeTotal() int {
	n := 0
	for _, s := range masShapes {
		n += s.weight
	}
	return n
}

// shapeAt picks the shape for a position u in [0, 1) by weight.
func shapeAt(u float64) masShape {
	w := int(u * float64(shapeTotal()))
	for _, s := range masShapes {
		if w < s.weight {
			return s
		}
		w -= s.weight
	}
	return masShapes[len(masShapes)-1]
}

// lowDiscrepancy returns the i-th point of the golden-ratio sequence in
// [0, 1): evenly spread and the same for every seed.
func lowDiscrepancy(i int) float64 {
	_, f := math.Modf(float64(i) * 0.6180339887498949)
	return f
}

// syllables build pronounceable, digit-free tokens; a token is three
// syllables, so there are len³ distinct tokens.
var syllables = []string{
	"ka", "lo", "mi", "ren", "sa", "tu", "vo", "bel", "dri", "fa", "go", "hal",
	"ji", "ku", "ler", "mo", "nu", "pra", "qui", "ros", "sel", "tam", "ul", "wen",
}

// tokens returns n distinct capitalized tokens in a seeded order.
func tokens(r *xrand.Rand, n int) []string {
	s := len(syllables)
	idx := make([]int, s*s*s)
	for i := range idx {
		idx[i] = i
	}
	r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	out := make([]string, n)
	for i := range out {
		k := idx[i%len(idx)]
		t := syllables[k%s] + syllables[(k/s)%s] + syllables[k/(s*s)]
		out[i] = strings.ToUpper(t[:1]) + t[1:]
	}
	return out
}

// generateSynth grows a copy of the MAS database with seeded rows and
// mines the synth tenant's log and request material from it.
func generateSynth(seed uint64) *synthData {
	r := xrand.New(seed ^ 0x53594e54)
	d := datasets.MAS().DB
	p := &synthPools{}
	toks := tokens(r, 4000)
	tok := func(i int) string { return toks[i%len(toks)] }

	// Organizations, domains, topics, journals and conferences get fresh
	// keys past the gold rows; every name is distinct.
	orgBase, domBase, topBase, jBase, cBase := 1000, 1000, 1000, 1000, 1000
	for i := 0; i < synthOrgs; i++ {
		name := "University of " + tok(i) + " " + tok(i+1777)
		p.orgs = append(p.orgs, name)
		d.MustInsert("organization", []db.Value{db.Num(float64(orgBase + i)), db.Str(name), db.Str("http://org.example/" + tok(i)), db.Num(float64(1 + r.Intn(6)))})
	}
	for i := 0; i < synthDomains; i++ {
		name := tok(i+400) + " " + tok(i+2500)
		p.domains = append(p.domains, name)
		d.MustInsert("domain", []db.Value{db.Num(float64(domBase + i)), db.Str(name)})
	}
	for i := 0; i < synthTopics; i++ {
		name := strings.ToLower(tok(i+800) + " " + tok(i+3100))
		p.topics = append(p.topics, name)
		d.MustInsert("keyword", []db.Value{db.Num(float64(topBase + i)), db.Str(name)})
	}
	for i := 0; i < synthJournals; i++ {
		name := "Journal of " + tok(i+2900)
		p.journals = append(p.journals, name)
		d.MustInsert("journal", []db.Value{db.Num(float64(jBase + i)), db.Str(name), db.Str("Transactions on " + tok(i+2900)), db.Str("http://journal.example/" + tok(i))})
	}
	for i := 0; i < synthConferences; i++ {
		name := tok(i+3300) + " " + tok(i+100)
		p.conferences = append(p.conferences, name)
		d.MustInsert("conference", []db.Value{db.Num(float64(cBase + i)), db.Str(name), db.Str("Symposium on " + tok(i+3300)), db.Str("http://conf.example/" + tok(i))})
	}
	// Authors: first × last token pairs, distinct by construction.
	for i := 0; i < synthAuthors; i++ {
		name := tok(i%300+3600) + " " + tok(i/300*7+i%7)
		p.authors = append(p.authors, name)
		d.MustInsert("author", []db.Value{db.Num(float64(1000 + i)), db.Str(name), db.Str("http://people.example/" + tok(i)), db.Num(float64(orgBase + r.Intn(synthOrgs)))})
	}
	for i := 0; i < synthPublications; i++ {
		title := tok(i%997) + " " + tok(i/997+1000) + " Analysis"
		d.MustInsert("publication", []db.Value{
			db.Num(float64(1000 + i)), db.Str(title), db.Str("We study " + tok(i%997) + "."),
			db.Num(float64(1990 + r.Intn(26))), db.Num(float64(r.Intn(3000))), db.Num(float64(r.Intn(80))),
			db.Num(float64(cBase + r.Intn(synthConferences))), db.Num(float64(jBase + r.Intn(synthJournals))),
		})
	}
	for i := 0; i < 3*synthPublications; i++ {
		d.MustInsert("writes", []db.Value{db.Num(float64(1000 + r.Intn(synthAuthors))), db.Num(float64(1000 + r.Intn(synthPublications)))})
	}
	for i := 0; i < 2*synthPublications; i++ {
		d.MustInsert("publication_keyword", []db.Value{db.Num(float64(1000 + r.Intn(synthPublications))), db.Num(float64(topBase + r.Intn(synthTopics)))})
	}
	for i := 0; i < synthTopics; i++ {
		d.MustInsert("domain_keyword", []db.Value{db.Num(float64(domBase + r.Intn(synthDomains))), db.Num(float64(topBase + r.Intn(synthTopics)))})
	}
	for i := 0; i < synthJournals; i++ {
		d.MustInsert("domain_journal", []db.Value{db.Num(float64(jBase + i)), db.Num(float64(domBase + r.Intn(synthDomains)))})
	}
	for i := 0; i < synthConferences; i++ {
		d.MustInsert("domain_conference", []db.Value{db.Num(float64(cBase + i)), db.Num(float64(domBase + r.Intn(synthDomains)))})
	}

	// The log and the append pool follow one fixed pattern of shapes and
	// skewed value ranks (hot values repeat, as in real logs), the same
	// for every seed; the seed only decides which names fill the ranks.
	// So synth's QFG has the same size and shape for every seed. The
	// read keywords draw uniformly, so the read working set is as wide as
	// the pools.
	k := 0
	skewed := func(n int) int {
		k++
		u := lowDiscrepancy(k)
		return int(float64(n) * u * u)
	}
	uniform := func(n int) int { return r.Intn(n) }
	sd := &synthData{db: d, profile: &workload.Profile{Name: synthName}}
	for i := 0; i < synthLogQueries+synthAppendPool; i++ {
		_, sql := shapeAt(lowDiscrepancy(i+1e6)).build(p, skewed)
		if i < synthLogQueries {
			sd.log = append(sd.log, sql)
		} else {
			sd.profile.SQL = append(sd.profile.SQL, sql)
		}
	}
	for i := 0; i < synthKeywordPool; i++ {
		in, _ := shapeAt(r.Float01()).build(p, uniform)
		if r.Intn(4) != 0 {
			// Three in four value keywords name only the last word of a value
			// ("papers by Lindqvist"), which matches many rows across
			// columns and makes the mapper rank the ambiguity.
			for k := range in.Keywords {
				if kw := &in.Keywords[k]; kw.Context == "where" && kw.Op == "" {
					kw.Text = kw.Text[strings.LastIndexByte(kw.Text, ' ')+1:]
				}
			}
		}
		sd.profile.Keywords = append(sd.profile.Keywords, in)
	}
	sd.profile.RelationBags = relationBags(d.Schema().Relations(), r)
	return sd
}

// relationBags enumerates every bag of 2 to 4 distinct relations, plus
// seeded 5-relation bags and self-join bags (one relation twice), in a
// seeded order.
func relationBags(rels []string, r *xrand.Rand) [][]string {
	var out [][]string
	var rec func(start int, cur []string)
	rec = func(start int, cur []string) {
		if len(cur) >= 2 {
			out = append(out, append([]string(nil), cur...))
		}
		if len(cur) == 4 {
			return
		}
		for i := start; i < len(rels); i++ {
			rec(i+1, append(cur, rels[i]))
		}
	}
	rec(0, nil)
	for i := 0; i < 3000; i++ {
		perm := make([]string, len(rels))
		copy(perm, rels)
		r.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		out = append(out, perm[:5])
	}
	for i := 0; i < 1000; i++ {
		a, b := rels[r.Intn(len(rels))], rels[r.Intn(len(rels))]
		out = append(out, []string{a, a, b})
	}
	r.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// appendStream is synth's log-append stream: a fixed pattern of
// DefaultMix's shapes (three batches of 1 to 3 queries with counts 1 to 3,
// then one ordered session of 2 to 4 consecutive pool queries), filled
// with seeded draws from the append pool.
func appendStream(pool []string, r *xrand.Rand) []workload.Request {
	out := make([]workload.Request, 2000)
	for j := range out {
		la := &api.LogAppendRequest{}
		if j%4 == 3 {
			n := 2 + (j/4)%3
			start := r.Intn(len(pool) - n + 1)
			for i := 0; i < n; i++ {
				la.Queries = append(la.Queries, api.LogEntry{SQL: pool[start+i]})
			}
			la.Session, la.Decay = true, 0.5
		} else {
			for i := 0; i <= j%4; i++ {
				la.Queries = append(la.Queries, api.LogEntry{SQL: pool[r.Intn(len(pool))], Count: 1 + (j/4)%3})
			}
		}
		out[j] = workload.Request{Seq: j, Op: workload.OpLogAppend, Dataset: synthName, LogAppend: la}
	}
	return out
}

// engineKeywords converts wire keywords to the mapper's form, the way the
// serving layer decodes them.
func engineKeywords(in api.KeywordsInput) ([]keyword.Keyword, error) {
	if in.Spec != "" {
		return keyword.ParseSpec(in.Spec)
	}
	out := make([]keyword.Keyword, len(in.Keywords))
	for i, kj := range in.Keywords {
		kw := keyword.Keyword{Text: kj.Text}
		switch strings.ToLower(kj.Context) {
		case "select":
			kw.Meta.Context = fragment.Select
		case "from":
			kw.Meta.Context = fragment.From
		default:
			kw.Meta.Context = fragment.Where
		}
		kw.Meta.Op = kj.Op
		if kj.Agg != "" {
			kw.Meta.Aggs = []string{strings.ToUpper(kj.Agg)}
		}
		kw.Meta.GroupBy = kj.GroupBy
		out[i] = kw
	}
	return out, nil
}
