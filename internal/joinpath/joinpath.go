package joinpath

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"templar/internal/schema"
)

// WeightFunc assigns a weight in [0, 1] to the join edge between two
// relations. It must be symmetric.
type WeightFunc func(relA, relB string) float64

// UniformWeights is the default weight function of §VI-A1: every edge costs
// 1, so the minimum Steiner tree is the join path with the fewest joins.
func UniformWeights(string, string) float64 { return 1 }

// DiceSource supplies relation co-occurrence evidence (the QFG satisfies it).
type DiceSource interface {
	DiceRelations(relA, relB string) float64
}

// LogWeights returns the log-driven weight function wL of §VI-A2. Weights
// are clamped to a small positive floor so Dijkstra stays well-behaved when
// two relations always co-occur (Dice = 1).
func LogWeights(src DiceSource) WeightFunc {
	const floor = 1e-3
	return func(a, b string) float64 {
		w := 1 - src.DiceRelations(a, b)
		if w < floor {
			return floor
		}
		return w
	}
}

// CountSource supplies raw relation co-occurrence counts (the QFG satisfies
// it).
type CountSource interface {
	RelationCoOccurrences(relA, relB string) int
}

// CountWeights is the design-ablation alternative to LogWeights: edge
// weights derived from raw co-occurrence counts, w = 1/(1+ne), without the
// Dice normalization by individual occurrence counts. High-traffic hub
// relations make every adjacent edge cheap under this scheme, which is the
// failure mode Dice normalization prevents.
func CountWeights(src CountSource) WeightFunc {
	return func(a, b string) float64 {
		return 1 / (1 + float64(src.RelationCoOccurrences(a, b)))
	}
}

// Edge is one join edge of a resulting path, between two relation
// *instances*. Instances are distinct for self-joins (author, author#2);
// FK identifies the underlying FK-PK columns.
type Edge struct {
	FromInst string
	ToInst   string
	FK       schema.ForeignKey
	Weight   float64
}

// String renders "fromInst.fkAttr = toInst.pkAttr" style identity.
func (e Edge) String() string {
	return e.FromInst + "." + e.FK.FromAttr + " = " + e.ToInst + "." + e.FK.ToAttr
}

// Path is one inferred join path: a tree over relation instances.
type Path struct {
	// Relations lists every relation instance in the tree, sorted.
	// Instance names are the base relation name, with "#k" suffixes for
	// self-join clones (k ≥ 2).
	Relations []string
	// Edges are the join edges of the tree.
	Edges []Edge
	// TotalWeight is the Steiner objective Σ w(e).
	TotalWeight float64
	// Score is the paper's literal Scorej(j) = Σw(e) / |Ej|², defined as 1
	// for a single-relation path with no edges.
	Score float64
	// Goodness is the monotone ranking score used when combining a join
	// path with a keyword-mapping configuration: 1 / (1 + TotalWeight).
	// Higher is better; shorter/frequent paths win under both weightings.
	Goodness float64
}

// BaseRelation strips the "#k" clone suffix from an instance name.
func BaseRelation(inst string) string {
	if i := strings.IndexByte(inst, '#'); i >= 0 {
		return inst[:i]
	}
	return inst
}

// String renders the path as "a-b-c" over sorted instances.
func (p Path) String() string { return strings.Join(p.Relations, "-") }

// canonical produces a dedupe key from the edge set.
func (p Path) canonical() string {
	es := make([]string, len(p.Edges))
	for i, e := range p.Edges {
		a, b := e.FromInst+"."+e.FK.FromAttr, e.ToInst+"."+e.FK.ToAttr
		if b < a {
			a, b = b, a
		}
		es[i] = a + "=" + b
	}
	sort.Strings(es)
	return strings.Join(es, "&") + "|" + strings.Join(p.Relations, ",")
}

// Generator infers join paths over a schema graph with a weight function.
//
// A Generator is safe for concurrent use: the relation-instance adjacency
// graph (including every edge weight, which may be a log-driven Dice
// computation) is precomputed once at construction, and a self-join bag
// forks a private copy-on-write clone of it, so no call mutates shared
// state.
type Generator struct {
	graph *schema.Graph
	// base is the precomputed relation-instance graph of the schema.
	base *relGraph
	// cache memoizes per-bag inference outcomes (see inferCache): the
	// graph and weights never change after construction, so the ranked
	// path list for a bag is a pure function of the bag.
	cache inferCache
}

// NewGenerator builds a Generator. A nil weight function means uniform.
func NewGenerator(g *schema.Graph, w WeightFunc) *Generator {
	if w == nil {
		w = UniformWeights
	}
	return &Generator{graph: g, base: buildRelGraph(g, w)}
}

// Infer implements INFERJOINS with no cancellation; see InferCtx.
func (gen *Generator) Infer(bag []string, topK int) ([]Path, error) {
	return gen.InferCtx(context.Background(), bag, topK)
}

// InferCtx implements INFERJOINS: it returns up to topK join paths spanning
// the bag of relations (a multiset; duplicates trigger schema-graph
// forking), ranked from most to least likely. An empty bag is an error; a
// bag whose relations cannot be connected is an error.
//
// The answer is a function of the multiset alone: the bag is sorted once,
// and the sorted bag is both the cache key and the input of the Steiner
// search, so element order and the calls served before never change it.
//
// ctx is checked before every Dijkstra sweep of the Steiner approximation
// and between alternative-path retries, so a canceled request abandons the
// path search mid-flight; the wrapped ctx error is returned.
//
// Outcomes are memoized per bag: repeat bags — the common case when
// translation tries several configurations naming the same relations —
// skip the Steiner search entirely. The returned paths of a cache hit share
// their Relations/Edges backing with the cache; callers must treat them as
// read-only, which every caller in this module already does.
func (gen *Generator) InferCtx(ctx context.Context, bag []string, topK int) ([]Path, error) {
	if len(bag) == 0 {
		return nil, fmt.Errorf("joinpath: empty relation bag")
	}
	if topK <= 0 {
		topK = 1
	}
	for _, r := range bag {
		if _, ok := gen.graph.Relation(r); !ok {
			return nil, fmt.Errorf("joinpath: unknown relation %q", r)
		}
	}

	// Poll before the cache: a canceled request must not be handed a
	// cached answer it can no longer use — the contract is "canceled
	// requests abort", cache hit or not.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("joinpath: inference canceled: %w", err)
	}

	// The sorted bag is the cache key (joined by NUL, which no relation
	// name contains) and the input of the search.
	buf := bagPool.Get().(*[]string)
	defer bagPool.Put(buf)
	sorted := append((*buf)[:0], bag...)
	sort.Strings(sorted)
	*buf = sorted
	key := strings.Join(sorted, "\x00")

	if e, ok := gen.cache.get(key); ok {
		if e.err != nil {
			return nil, e.err
		}
		return trimPaths(e.paths, topK), nil
	}
	paths, err := gen.inferUncached(ctx, sorted)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err // transient: says nothing about the bag
		}
		gen.cache.put(key, inferEntry{err: err})
		return nil, err
	}
	gen.cache.put(key, inferEntry{paths: paths})
	return trimPaths(paths, topK), nil
}

// bagPool pools the sorted copy of the bag InferCtx works on.
var bagPool = sync.Pool{New: func() any { return new([]string) }}

// trimPaths returns the best topK paths as a fresh top-level slice, so a
// caller appending to its result can never clobber the cached tail. The
// Path values themselves (and their Relations/Edges backing) stay shared.
func trimPaths(paths []Path, topK int) []Path {
	if len(paths) > topK {
		paths = paths[:topK]
	}
	return append([]Path(nil), paths...)
}

// inferUncached runs the Steiner search on a sorted bag and returns the
// full ranked path list, untrimmed so one cache entry serves every topK.
func (gen *Generator) inferUncached(ctx context.Context, bag []string) ([]Path, error) {
	// Self-join forking is the only mutation of the relation graph, so the
	// shared base serves duplicate-free bags (the common case) directly.
	rg := gen.base
	if hasDuplicates(bag) {
		rg = gen.base.clone()
	}
	terminals := rg.applyBag(bag)
	if len(terminals) == 1 {
		inst := rg.names[terminals[0]]
		return []Path{{Relations: []string{inst}, Score: 1, Goodness: 1}}, nil
	}

	sc := steinerScratchPool.Get().(*steinerScratch)
	defer steinerScratchPool.Put(sc)
	best, err := rg.steiner(ctx, sc, terminals, -1)
	if err != nil {
		return nil, err
	}
	// Each path's canonical key is built once: it dedupes the banned-edge
	// alternatives (at most one per edge of the best tree, so a scan
	// beats a set) and breaks the final ranking's last ties.
	first := rg.toPath(sc, best)
	ranked := []keyedPath{{first, first.canonical()}}

	// Alternatives: re-run with each edge of the best tree banned.
	for _, id := range best.edges {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("joinpath: path search canceled: %w", err)
		}
		alt, err := rg.steiner(ctx, sc, terminals, id)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err // canceled mid-sweep, not a bridge
			}
			continue // this edge was a bridge; no alternative exists
		}
		p := rg.toPath(sc, alt)
		if k := p.canonical(); !slices.ContainsFunc(ranked, func(r keyedPath) bool { return r.key == k }) {
			ranked = append(ranked, keyedPath{p, k})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, b := &ranked[i].path, &ranked[j].path
		if a.TotalWeight != b.TotalWeight {
			return a.TotalWeight < b.TotalWeight
		}
		if len(a.Edges) != len(b.Edges) {
			return len(a.Edges) < len(b.Edges)
		}
		return ranked[i].key < ranked[j].key
	})
	paths := make([]Path, len(ranked))
	for i := range ranked {
		paths[i] = ranked[i].path
	}
	return paths, nil
}

// keyedPath is a candidate path with its canonical key.
type keyedPath struct {
	path Path
	key  string
}

// ---------------------------------------------------------------------------
// Internal relation-instance graph.

// relGraph is a multigraph over relation instances. Vertices 0..len(idx)-1
// are the schema's relations; self-join forks append clones after them.
// Every undirected edge has a dense ID, its index in edges.
type relGraph struct {
	names []string
	// idx maps a schema relation to its vertex; clones are never looked
	// up by name.
	idx map[string]int
	// adj[v] lists v's half-edges; parallel FK edges are kept distinct.
	adj   [][]halfEdge
	edges []edge
}

// edge is one undirected join edge between vertices lo <= hi.
type edge struct {
	lo, hi int
	// fkSide is the endpoint on the FK side of the FK-PK join.
	fkSide int
	w      float64
	fk     schema.ForeignKey
}

// other returns the endpoint of e that is not v.
func (e *edge) other(v int) int {
	if v == e.lo {
		return e.hi
	}
	return e.lo
}

// halfEdge is a directed view of edge id from its owner vertex.
type halfEdge struct{ to, id int }

// tree is a Steiner tree: its edge IDs in output order (see toPath) and
// their total weight, summed in Kruskal order.
type tree struct {
	edges []int
	total float64
}

func buildRelGraph(g *schema.Graph, w WeightFunc) *relGraph {
	rg := &relGraph{idx: make(map[string]int)}
	for _, rn := range g.Relations() {
		rg.idx[rn] = rg.addVertex(rn)
	}
	for _, fk := range g.ForeignKeys() {
		rg.addEdge(rg.idx[fk.FromRel], rg.idx[fk.ToRel], w(fk.FromRel, fk.ToRel), fk)
	}
	return rg
}

func (rg *relGraph) addVertex(name string) int {
	rg.names = append(rg.names, name)
	rg.adj = append(rg.adj, nil)
	return len(rg.names) - 1
}

func (rg *relGraph) addEdge(a, b int, w float64, fk schema.ForeignKey) {
	e := edge{lo: min(a, b), hi: max(a, b), w: w, fk: fk}
	e.fkSide = e.lo
	if fk.FromRel != BaseRelation(rg.names[e.lo]) {
		e.fkSide = e.hi
	}
	id := len(rg.edges)
	rg.edges = append(rg.edges, e)
	rg.adj[a] = append(rg.adj[a], halfEdge{to: b, id: id})
	rg.adj[b] = append(rg.adj[b], halfEdge{to: a, id: id})
}

// clone returns a copy-on-write view of the graph for self-join forking:
// every slice is capped at its length, so the appends of fork reallocate
// and the shared base is only ever read.
func (rg *relGraph) clone() *relGraph {
	c := &relGraph{
		names: rg.names[:len(rg.names):len(rg.names)],
		idx:   rg.idx,
		adj:   make([][]halfEdge, len(rg.adj)),
		edges: rg.edges[:len(rg.edges):len(rg.edges)],
	}
	for i, hes := range rg.adj {
		c.adj[i] = hes[:len(hes):len(hes)]
	}
	return c
}

// hasDuplicates reports whether the sorted bag names any relation twice.
func hasDuplicates(sorted []string) bool {
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return true
		}
	}
	return false
}

// applyBag turns a sorted relation multiset into terminal vertex ids,
// forking the graph for duplicates (Algorithm 4: one fork per extra
// reference, numbered #2, #3, … per relation).
func (rg *relGraph) applyBag(sorted []string) []int {
	terminals := make([]int, len(sorted))
	d := 1
	for i, r := range sorted {
		if i > 0 && r == sorted[i-1] {
			d++
			terminals[i] = rg.fork(rg.idx[r], d)
			continue
		}
		d = 1
		terminals[i] = rg.idx[r]
	}
	return terminals
}

// fork clones the subgraph rooted at relation vertex v (Algorithm 4 at the
// relation level): the duplicated relation and every relation that
// *references* it transitively are cloned; FK edges pointing away from a
// clone reattach to the shared original target. The clone of vertex i gets
// the instance name names[i] + "#d". A copied edge keeps its source edge's
// weight: it joins the same two relations, and a WeightFunc is symmetric.
func (rg *relGraph) fork(v int, d int) int {
	suffix := "#" + strconv.Itoa(d)
	// cloneOf[i] is the clone of schema vertex i, or -1 while this fork
	// has not reached it.
	cloneOf := make([]int, len(rg.idx))
	for i := range cloneOf {
		cloneOf[i] = -1
	}
	cloneOf[v] = rg.addVertex(rg.names[v] + suffix)
	stack := []int{v}
	for len(stack) > 0 {
		old := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		newV := cloneOf[old]
		for _, he := range rg.adj[old] {
			conn := he.to
			// Only walk the schema's own vertices: clones of this or
			// earlier forks are never re-cloned. Algorithm 4 line 12:
			// vertices already visited by this fork were connected when
			// first reached; re-visiting them would add spurious edges
			// back into the original graph.
			if conn >= len(rg.idx) || cloneOf[conn] >= 0 {
				continue
			}
			e := rg.edges[he.id]
			if e.fkSide == old {
				// FK-PK edge in the direction old -> conn: terminate the
				// fork here; connect the clone to the shared vertex.
				rg.addEdge(newV, conn, e.w, e.fk)
				continue
			}
			// conn references old: clone conn and continue traversal.
			cloneOf[conn] = rg.addVertex(rg.names[conn] + suffix)
			rg.addEdge(newV, cloneOf[conn], e.w, e.fk)
			stack = append(stack, conn)
		}
	}
	return cloneOf[v]
}

// dijkstra computes shortest paths from src into the caller-provided
// buffers, skipping the banned edge ID (-1 bans none). prev records the
// edge ID each vertex was reached by, -1 for none. Every cell of dist,
// prev and visited is reinitialized before use.
func (rg *relGraph) dijkstra(src, banned int, dist []float64, prev []int, visited []bool) {
	n := len(rg.names)
	for i := 0; i < n; i++ {
		dist[i] = math.Inf(1)
		prev[i] = -1
		visited[i] = false
	}
	dist[src] = 0
	for {
		u, best := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !visited[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 {
			break
		}
		visited[u] = true
		for _, he := range rg.adj[u] {
			if he.id == banned {
				continue
			}
			if nd := dist[u] + rg.edges[he.id].w; nd < dist[he.to] {
				dist[he.to] = nd
				prev[he.to] = he.id
			}
		}
	}
}

// steiner runs the KMB approximation over the terminals with one edge
// banned (-1 for none), polling ctx before each Dijkstra sweep (the
// dominant cost on large schemas).
func (rg *relGraph) steiner(ctx context.Context, sc *steinerScratch, terminals []int, banned int) (tree, error) {
	k := len(terminals)
	sc.grab(k, len(rg.names), len(rg.edges))

	// Step 1: metric closure between terminals.
	for i, t := range terminals {
		if err := ctx.Err(); err != nil {
			return tree{}, fmt.Errorf("joinpath: path search canceled: %w", err)
		}
		rg.dijkstra(t, banned, sc.dists[i], sc.prevs[i], sc.visited)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if math.IsInf(sc.dists[i][terminals[j]], 1) {
				return tree{}, fmt.Errorf("joinpath: relations %q and %q are not connected",
					rg.names[terminals[i]], rg.names[terminals[j]])
			}
		}
	}

	// Step 2: MST of the closure (Prim over terminal pairs a < b, first
	// strict minimum wins), and step 3: expand each picked pair into its
	// shortest path from terminal a and union the edges.
	sc.inMST[0] = true
	ids := sc.ids[:0]
	for picked := 1; picked < k; picked++ {
		best, pa, pb := math.Inf(1), -1, -1
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if sc.inMST[a] == sc.inMST[b] {
					continue
				}
				if d := sc.dists[a][terminals[b]]; d < best {
					best, pa, pb = d, a, b
				}
			}
		}
		if pa < 0 {
			return tree{}, fmt.Errorf("joinpath: terminals not connected")
		}
		sc.inMST[pa], sc.inMST[pb] = true, true
		for cur := terminals[pb]; cur != terminals[pa]; {
			id := sc.prevs[pa][cur]
			if id < 0 {
				return tree{}, fmt.Errorf("joinpath: internal: broken predecessor chain")
			}
			if !sc.inUnion[id] {
				sc.inUnion[id] = true
				ids = append(ids, id)
			}
			cur = rg.edges[id].other(cur)
		}
	}

	// Step 4: MST of the induced subgraph (Kruskal over the union, which
	// can contain cycles), filtered in place.
	slices.SortFunc(ids, rg.cmpKruskal)
	mst := ids[:0]
	for _, id := range ids {
		e := &rg.edges[id]
		ra, rb := find(sc.parent, e.lo), find(sc.parent, e.hi)
		if ra == rb {
			continue
		}
		sc.parent[ra] = rb
		mst = append(mst, id)
	}

	// Step 5: prune non-terminal leaves until none is left, keeping the
	// relative edge order.
	for _, t := range terminals {
		sc.terminal[t] = true
	}
	for _, id := range mst {
		sc.degree[rg.edges[id].lo]++
		sc.degree[rg.edges[id].hi]++
	}
	leaf := func(v int) bool { return sc.degree[v] == 1 && !sc.terminal[v] }
	for pruned := true; pruned; {
		pruned = false
		kept := mst[:0]
		for _, id := range mst {
			if e := &rg.edges[id]; leaf(e.lo) || leaf(e.hi) {
				sc.degree[e.lo]--
				sc.degree[e.hi]--
				pruned = true
				continue
			}
			kept = append(kept, id)
		}
		mst = kept
	}
	sc.ids = ids

	tr := tree{edges: append([]int(nil), mst...)}
	for _, id := range tr.edges {
		tr.total += rg.edges[id].w
	}
	slices.SortFunc(tr.edges, rg.cmpKey)
	return tr, nil
}

// find is union-find's root lookup with path halving.
func find(parent []int, x int) int {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// cmpKey orders edges by (lo, hi): the output order of a path's edges.
// No sorted set holds two parallel edges: they weigh the same (weights
// are per relation pair), so every Dijkstra sweep reaches over the
// lowest-ID unbanned one, and a step-3 union or a tree holds at most one
// of them. The FK therefore never decides the order; the ID only makes it
// total.
func (rg *relGraph) cmpKey(i, j int) int {
	a, b := &rg.edges[i], &rg.edges[j]
	if c := cmp.Compare(a.lo, b.lo); c != 0 {
		return c
	}
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	return cmp.Compare(i, j)
}

// cmpKruskal orders edges by weight, then by cmpKey.
func (rg *relGraph) cmpKruskal(i, j int) int {
	if c := cmp.Compare(rg.edges[i].w, rg.edges[j].w); c != 0 {
		return c
	}
	return rg.cmpKey(i, j)
}

// toPath converts an internal tree into the public Path form.
func (rg *relGraph) toPath(sc *steinerScratch, tr tree) Path {
	p := Path{
		Relations:   make([]string, 0, len(tr.edges)+1),
		Edges:       make([]Edge, len(tr.edges)),
		TotalWeight: tr.total,
	}
	vs := sc.ids[:0]
	for i, id := range tr.edges {
		e := &rg.edges[id]
		p.Edges[i] = Edge{
			FromInst: rg.names[e.fkSide],
			ToInst:   rg.names[e.other(e.fkSide)],
			FK:       e.fk,
			Weight:   e.w,
		}
		vs = append(vs, e.lo, e.hi)
	}
	// Relations lists every vertex once; two forks may each name a clone
	// "x#2", so vertices are deduplicated by ID, not by name.
	slices.Sort(vs)
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			p.Relations = append(p.Relations, rg.names[v])
		}
	}
	sc.ids = vs
	sort.Strings(p.Relations)
	if len(p.Edges) == 0 {
		p.Score = 1
	} else {
		p.Score = p.TotalWeight / float64(len(p.Edges)*len(p.Edges))
	}
	p.Goodness = 1 / (1 + p.TotalWeight)
	return p
}

// steinerScratch holds the working state of one KMB search: a Dijkstra row
// (distances + predecessor edge IDs) per terminal, the visited bitmap, and
// the per-terminal, per-edge and per-vertex arrays of steps 2–5. Pooled so
// repeated misses on the same schema stop allocating per sweep.
type steinerScratch struct {
	dists    [][]float64
	prevs    [][]int
	visited  []bool
	inMST    []bool // per terminal: joined the closure MST
	inUnion  []bool // per edge: already in the step-3 union
	ids      []int  // edge IDs of steps 3–5; vertex IDs in toPath
	parent   []int  // per vertex: union-find parent
	degree   []int  // per vertex: degree in the Kruskal tree
	terminal []bool // per vertex
}

var steinerScratchPool = sync.Pool{New: func() any { return new(steinerScratch) }}

// grab sizes the scratch for k terminals over a graph of n vertices and m
// edges, reusing retained capacity, and resets every array steps 2–5 read
// before writing.
func (s *steinerScratch) grab(k, n, m int) {
	if cap(s.dists) < k {
		s.dists = make([][]float64, k)
		s.prevs = make([][]int, k)
	}
	s.dists, s.prevs = s.dists[:k], s.prevs[:k]
	for i := range s.dists {
		s.dists[i] = resize(s.dists[i], n)
		s.prevs[i] = resize(s.prevs[i], n)
	}
	s.visited = resize(s.visited, n)
	s.inMST = resize(s.inMST, k)
	s.inUnion = resize(s.inUnion, m)
	s.parent = resize(s.parent, n)
	s.degree = resize(s.degree, n)
	s.terminal = resize(s.terminal, n)
	clear(s.inMST)
	clear(s.inUnion)
	clear(s.degree)
	clear(s.terminal)
	for i := range s.parent {
		s.parent[i] = i
	}
}

// resize returns s with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
