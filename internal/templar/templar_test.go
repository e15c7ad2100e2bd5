package templar

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/schema"
	"templar/internal/sqlparse"
)

func fixtureDB(t testing.TB) *db.Database {
	t.Helper()
	g := schema.NewGraph()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddRelation(schema.Relation{Name: "journal", Attributes: []schema.Attribute{
		{Name: "jid", Type: schema.Number, PrimaryKey: true},
		{Name: "name", Type: schema.Text},
	}}))
	must(g.AddRelation(schema.Relation{Name: "publication", Attributes: []schema.Attribute{
		{Name: "pid", Type: schema.Number, PrimaryKey: true},
		{Name: "title", Type: schema.Text},
		{Name: "year", Type: schema.Number},
		{Name: "jid", Type: schema.Number},
	}}))
	must(g.AddForeignKey(schema.ForeignKey{FromRel: "publication", FromAttr: "jid", ToRel: "journal", ToAttr: "jid"}))
	d := db.New(g)
	d.MustInsert("journal", []db.Value{db.Num(1), db.Str("TKDE")})
	d.MustInsert("publication", []db.Value{db.Num(10), db.Str("Adaptive Query Planning"), db.Num(2004), db.Num(1)})
	return d
}

func fixtureQFG(t testing.TB) *qfg.Snapshot {
	t.Helper()
	entries, err := sqlparse.ParseLog(`
10x: SELECT p.title FROM publication p WHERE p.year > 2000
4x: SELECT j.name FROM journal j
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFacadeMapKeywords(t *testing.T) {
	d := fixtureDB(t)
	sys := NewLive(d, embedding.New(), fixtureQFG(t), Options{LogJoin: true})
	configs, err := sys.MapKeywords(context.Background(), []keyword.Keyword{
		{Text: "papers", Meta: keyword.Metadata{Context: fragment.Select}},
		{Text: "after 2000", Meta: keyword.Metadata{Context: fragment.Where, Op: ">"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) == 0 {
		t.Fatal("no configurations")
	}
	top := configs[0]
	if top.Mappings[0].Qualified() != "publication.title" {
		t.Fatalf("top mapping = %v", top.Mappings[0])
	}
	if top.QFGScore <= 0 {
		t.Fatalf("QFGScore = %v, want log evidence", top.QFGScore)
	}
}

func TestFacadeInferJoins(t *testing.T) {
	d := fixtureDB(t)
	sys := NewLive(d, embedding.New(), fixtureQFG(t), Options{LogJoin: true})
	paths, err := sys.InferJoins(context.Background(), []string{"publication", "journal"}, &CallOptions{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 || len(paths[0].Edges) != 1 {
		t.Fatalf("paths = %v", paths)
	}
	if !strings.Contains(paths[0].String(), "journal") {
		t.Fatalf("path = %v", paths[0])
	}
}

func TestFacadeNilGraphDegradesGracefully(t *testing.T) {
	d := fixtureDB(t)
	sys := NewLive(d, embedding.New(), nil, Options{LogJoin: true})
	configs, err := sys.MapKeywords(context.Background(), []keyword.Keyword{
		{Text: "journals", Meta: keyword.Metadata{Context: fragment.Select}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if configs[0].QFGScore != 0 {
		t.Fatal("nil QFG must yield zero log score")
	}
	// LogJoin with nil graph falls back to uniform weights.
	paths, err := sys.InferJoins(context.Background(), []string{"publication", "journal"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if paths[0].TotalWeight != 1 {
		t.Fatalf("uniform fallback weight = %v", paths[0].TotalWeight)
	}
}

func TestFacadeDatabaseAccessor(t *testing.T) {
	d := fixtureDB(t)
	sys := NewLive(d, embedding.New(), nil, Options{})
	if sys.Database() != d {
		t.Fatal("Database accessor")
	}
}

// TestFrozenSnapshotMatchesLive is the constructor-level parity gate for
// the one constructor's source kinds: a System over a fixed snapshot (the
// store cold-start path) must answer exactly like one over a *qfg.Live
// that publishes the same log state, and only the Live source accepts
// appends.
func TestFrozenSnapshotMatchesLive(t *testing.T) {
	d := fixtureDB(t)
	graph := fixtureQFG(t)
	live := NewLive(d, embedding.New(), qfg.NewLive(graph), Options{LogJoin: true})
	frozen := NewLive(d, embedding.New(), graph, Options{LogJoin: true})
	if frozen.Live() != nil {
		t.Fatal("snapshot-backed system must be frozen")
	}
	if live.Live() == nil {
		t.Fatal("Live-backed system must accept appends")
	}
	kws := []keyword.Keyword{
		{Text: "papers", Meta: keyword.Metadata{Context: fragment.Select}},
		{Text: "after 2000", Meta: keyword.Metadata{Context: fragment.Where, Op: ">"}},
	}
	wantCfg, err := live.MapKeywords(context.Background(), kws, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotCfg, err := frozen.MapKeywords(context.Background(), kws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCfg, wantCfg) {
		t.Fatalf("configurations diverged:\nsnapshot: %v\nlive:     %v", gotCfg, wantCfg)
	}
	wantTr, err := live.Translate(context.Background(), kws, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotTr, err := frozen.Translate(context.Background(), kws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTr, wantTr) {
		t.Fatalf("translations diverged:\nsnapshot: %+v\nlive:     %+v", gotTr, wantTr)
	}
	wantPaths, err := live.InferJoins(context.Background(), []string{"publication", "journal"}, &CallOptions{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	gotPaths, err := frozen.InferJoins(context.Background(), []string{"publication", "journal"}, &CallOptions{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPaths, wantPaths) {
		t.Fatal("join paths diverged between snapshot- and Live-backed systems")
	}
	// A nil source, typed or not, degrades to the log-free baseline.
	for _, src := range []qfg.SnapshotSource{nil, (*qfg.Live)(nil), (*qfg.Snapshot)(nil)} {
		baseline := NewLive(d, embedding.New(), src, Options{LogJoin: true})
		if baseline.Live() != nil || baseline.Snapshot() != nil {
			t.Fatalf("%T source: baseline must have no log", src)
		}
		cfgs, err := baseline.MapKeywords(context.Background(), kws[:1], nil)
		if err != nil {
			t.Fatal(err)
		}
		if cfgs[0].QFGScore != 0 || cfgs[0].Score != cfgs[0].SimScore {
			t.Fatalf("%T source: nil log must yield the λ=1 baseline: %+v", src, cfgs[0])
		}
	}
}

// TestEngineNeverStaleAfterPublish pins the read side of a live republish:
// readers released together right after a publish must all get the engine
// over the snapshot just published — the rebuild is waited for, never
// skipped by serving the engine it replaces — and they share one rebuild.
func TestEngineNeverStaleAfterPublish(t *testing.T) {
	live := qfg.NewLive(fixtureQFG(t))
	sys := NewLive(fixtureDB(t), embedding.New(), live, Options{LogJoin: true})
	q := sqlparse.MustParse("SELECT j.name FROM journal j, publication p WHERE p.jid = j.jid")

	const rounds, readers = 200, 64
	var stale atomic.Int64
	for r := 0; r < rounds; r++ {
		live.AddQueries([]*sqlparse.Query{q}, nil)
		want := live.CurrentSnapshot()
		engines := make([]*Engine, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range engines {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				if sys.Snapshot() != want {
					stale.Add(1)
				}
				if engines[i] = sys.Engine(); engines[i].Snapshot() != want {
					stale.Add(1)
				}
			}(i)
		}
		close(start)
		wg.Wait()
		for _, e := range engines {
			if e != engines[0] {
				t.Fatalf("round %d: readers of one snapshot got different engines", r)
			}
		}
	}
	if n := stale.Load(); n > 0 {
		t.Fatalf("%d of %d reads were served a stale engine", n, 2*rounds*readers)
	}
}
