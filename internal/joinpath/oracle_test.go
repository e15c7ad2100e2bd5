package joinpath

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"templar/internal/schema"
)

// The oracle is the original string-keyed KMB implementation, kept as the
// reference TestInferDifferential checks the edge-ID search against. It is
// a faithful copy minus cancellation, pooling and the cache: FK-carrying
// half-edges, a map-keyed banned set, and map-based edge union, union-find
// and leaf pruning in steps 3–5. It searches the bag in the order given,
// so callers pass the sorted bag.

// oracleInfer returns the full ranked path list for bag over g under w.
func oracleInfer(g *schema.Graph, w WeightFunc, bag []string) ([]Path, error) {
	if w == nil {
		w = UniformWeights
	}
	rg := oBuildRelGraph(g, w)
	terminals := rg.applyBag(bag)
	if len(terminals) == 1 {
		inst := rg.names[terminals[0]]
		return []Path{{Relations: []string{inst}, Score: 1, Goodness: 1}}, nil
	}
	best, err := rg.steiner(terminals, nil)
	if err != nil {
		return nil, err
	}
	paths := []Path{rg.toPath(best)}
	seen := map[string]bool{paths[0].canonical(): true}
	for _, te := range best.edges {
		alt, err := rg.steiner(terminals, map[oEdgeKey]bool{te.key(): true})
		if err != nil {
			continue // this edge was a bridge; no alternative exists
		}
		p := rg.toPath(alt)
		if k := p.canonical(); !seen[k] {
			seen[k] = true
			paths = append(paths, p)
		}
	}
	sort.Slice(paths, func(i, j int) bool {
		if paths[i].TotalWeight != paths[j].TotalWeight {
			return paths[i].TotalWeight < paths[j].TotalWeight
		}
		if len(paths[i].Edges) != len(paths[j].Edges) {
			return len(paths[i].Edges) < len(paths[j].Edges)
		}
		return paths[i].canonical() < paths[j].canonical()
	})
	return paths, nil
}

type oRelGraph struct {
	names  []string
	idx    map[string]int
	adj    [][]oHalfEdge
	weight WeightFunc
}

type oHalfEdge struct {
	to         int
	w          float64
	fk         schema.ForeignKey
	fkFromHere bool
}

type oEdgeKey struct {
	a, b int
	fk   schema.ForeignKey
}

func oMakeEdgeKey(a, b int, fk schema.ForeignKey) oEdgeKey {
	if b < a {
		a, b = b, a
	}
	return oEdgeKey{a, b, fk}
}

func (k oEdgeKey) less(o oEdgeKey) bool {
	if k.a != o.a {
		return k.a < o.a
	}
	if k.b != o.b {
		return k.b < o.b
	}
	return k.fk.String() < o.fk.String()
}

type oTreeEdge struct {
	a, b  int
	w     float64
	fk    schema.ForeignKey
	aIsFK bool
}

func (t oTreeEdge) key() oEdgeKey { return oMakeEdgeKey(t.a, t.b, t.fk) }

type oTree struct {
	vertices map[int]bool
	edges    []oTreeEdge
	total    float64
}

type oPredEdge struct {
	prev int
	he   oHalfEdge
}

func oBuildRelGraph(g *schema.Graph, w WeightFunc) *oRelGraph {
	rg := &oRelGraph{idx: make(map[string]int), weight: w}
	for _, rn := range g.Relations() {
		rg.addVertex(rn)
	}
	for _, fk := range g.ForeignKeys() {
		rg.addEdge(rg.idx[fk.FromRel], rg.idx[fk.ToRel], fk)
	}
	return rg
}

func (rg *oRelGraph) addVertex(name string) int {
	i := len(rg.names)
	rg.names = append(rg.names, name)
	rg.idx[name] = i
	rg.adj = append(rg.adj, nil)
	return i
}

func (rg *oRelGraph) addEdge(a, b int, fk schema.ForeignKey) {
	w := rg.weight(BaseRelation(rg.names[a]), BaseRelation(rg.names[b]))
	rg.adj[a] = append(rg.adj[a], oHalfEdge{to: b, w: w, fk: fk, fkFromHere: fk.FromRel == BaseRelation(rg.names[a])})
	rg.adj[b] = append(rg.adj[b], oHalfEdge{to: a, w: w, fk: fk, fkFromHere: fk.FromRel == BaseRelation(rg.names[b])})
}

// applyBag orders terminals by first occurrence, forking once per extra
// reference (Algorithm 4).
func (rg *oRelGraph) applyBag(bag []string) []int {
	counts := make(map[string]int)
	order := make([]string, 0, len(bag))
	for _, r := range bag {
		if counts[r] == 0 {
			order = append(order, r)
		}
		counts[r]++
	}
	var terminals []int
	for _, r := range order {
		terminals = append(terminals, rg.idx[r])
		for d := 2; d <= counts[r]; d++ {
			terminals = append(terminals, rg.fork(rg.idx[r], d))
		}
	}
	return terminals
}

func (rg *oRelGraph) fork(v int, d int) int {
	suffix := fmt.Sprintf("#%d", d)
	cloneOf := make(map[int]int)
	var stack []int
	cloneOf[v] = rg.addVertex(rg.names[v] + suffix)
	stack = append(stack, v)
	visited := map[int]bool{v: true}
	for len(stack) > 0 {
		old := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		newV := cloneOf[old]
		for _, he := range rg.adj[old] {
			conn := he.to
			if strings.IndexByte(rg.names[conn], '#') >= 0 {
				continue
			}
			if visited[conn] {
				continue
			}
			if he.fkFromHere {
				rg.addEdge(newV, conn, he.fk)
				continue
			}
			visited[conn] = true
			cloneOf[conn] = rg.addVertex(rg.names[conn] + suffix)
			rg.addEdge(newV, cloneOf[conn], he.fk)
			stack = append(stack, conn)
		}
	}
	return cloneOf[v]
}

func (rg *oRelGraph) dijkstra(src int, banned map[oEdgeKey]bool) ([]float64, []oPredEdge) {
	n := len(rg.names)
	dist := make([]float64, n)
	prev := make([]oPredEdge, n)
	visited := make([]bool, n)
	for i := 0; i < n; i++ {
		dist[i] = math.Inf(1)
		prev[i] = oPredEdge{prev: -1}
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
			if banned != nil && banned[oMakeEdgeKey(u, he.to, he.fk)] {
				continue
			}
			if nd := dist[u] + he.w; nd < dist[he.to] {
				dist[he.to] = nd
				prev[he.to] = oPredEdge{prev: u, he: he}
			}
		}
	}
	return dist, prev
}

func (rg *oRelGraph) steiner(terminals []int, banned map[oEdgeKey]bool) (*oTree, error) {
	// Step 1: metric closure between terminals.
	type closureEdge struct {
		a, b int
		d    float64
	}
	dists := make([][]float64, len(terminals))
	prevs := make([][]oPredEdge, len(terminals))
	for i, t := range terminals {
		dists[i], prevs[i] = rg.dijkstra(t, banned)
	}
	var closure []closureEdge
	for i := 0; i < len(terminals); i++ {
		for j := i + 1; j < len(terminals); j++ {
			d := dists[i][terminals[j]]
			if math.IsInf(d, 1) {
				return nil, fmt.Errorf("joinpath: relations %q and %q are not connected",
					rg.names[terminals[i]], rg.names[terminals[j]])
			}
			closure = append(closure, closureEdge{i, j, d})
		}
	}

	// Step 2: MST of the closure (Prim over terminal indexes).
	inMST := make([]bool, len(terminals))
	inMST[0] = true
	type mstPick struct{ a, b int }
	var picks []mstPick
	for len(picks) < len(terminals)-1 {
		best, bi := math.Inf(1), -1
		for ci, ce := range closure {
			if inMST[ce.a] == inMST[ce.b] {
				continue
			}
			if ce.d < best {
				best, bi = ce.d, ci
			}
		}
		if bi < 0 {
			return nil, fmt.Errorf("joinpath: terminals not connected")
		}
		ce := closure[bi]
		inMST[ce.a], inMST[ce.b] = true, true
		picks = append(picks, mstPick{ce.a, ce.b})
	}

	// Step 3: expand each MST edge into its shortest path; union edges.
	edgeSet := make(map[oEdgeKey]oTreeEdge)
	vertices := make(map[int]bool)
	for _, t := range terminals {
		vertices[t] = true
	}
	for _, pk := range picks {
		cur := terminals[pk.b]
		for cur != terminals[pk.a] {
			pe := prevs[pk.a][cur]
			if pe.prev < 0 {
				return nil, fmt.Errorf("joinpath: internal: broken predecessor chain")
			}
			k := oMakeEdgeKey(pe.prev, cur, pe.he.fk)
			if _, ok := edgeSet[k]; !ok {
				te := oTreeEdge{a: pe.prev, b: cur, w: pe.he.w, fk: pe.he.fk}
				te.aIsFK = pe.he.fk.FromRel == BaseRelation(rg.names[pe.prev])
				edgeSet[k] = te
			}
			vertices[pe.prev] = true
			vertices[cur] = true
			cur = pe.prev
		}
	}

	// Step 4: MST of the induced subgraph (Kruskal).
	all := make([]oTreeEdge, 0, len(edgeSet))
	for _, te := range edgeSet {
		all = append(all, te)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w < all[j].w
		}
		return all[i].key().less(all[j].key())
	})
	parent := make(map[int]int)
	var find func(x int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	var mst []oTreeEdge
	for _, te := range all {
		ra, rb := find(te.a), find(te.b)
		if ra == rb {
			continue
		}
		parent[ra] = rb
		mst = append(mst, te)
	}

	// Step 5: prune non-terminal leaves repeatedly.
	termSet := make(map[int]bool, len(terminals))
	for _, t := range terminals {
		termSet[t] = true
	}
	for {
		degree := make(map[int]int)
		for _, te := range mst {
			degree[te.a]++
			degree[te.b]++
		}
		pruned := false
		var kept []oTreeEdge
		removeLeaf := -1
		for v, d := range degree {
			if d == 1 && !termSet[v] {
				removeLeaf = v
				break
			}
		}
		if removeLeaf >= 0 {
			for _, te := range mst {
				if te.a == removeLeaf || te.b == removeLeaf {
					pruned = true
					continue
				}
				kept = append(kept, te)
			}
			mst = kept
		}
		if !pruned {
			break
		}
	}

	tr := &oTree{vertices: make(map[int]bool)}
	for _, t := range terminals {
		tr.vertices[t] = true
	}
	for _, te := range mst {
		tr.vertices[te.a] = true
		tr.vertices[te.b] = true
		tr.total += te.w
		tr.edges = append(tr.edges, te)
	}
	return tr, nil
}

func (rg *oRelGraph) toPath(tr *oTree) Path {
	var p Path
	for v := range tr.vertices {
		p.Relations = append(p.Relations, rg.names[v])
	}
	sort.Strings(p.Relations)
	edges := append([]oTreeEdge(nil), tr.edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].key().less(edges[j].key()) })
	for _, te := range edges {
		from, to := te.a, te.b
		if !te.aIsFK {
			from, to = to, from
		}
		p.Edges = append(p.Edges, Edge{
			FromInst: rg.names[from],
			ToInst:   rg.names[to],
			FK:       te.fk,
			Weight:   te.w,
		})
	}
	p.TotalWeight = tr.total
	if len(p.Edges) == 0 {
		p.Score = 1
	} else {
		p.Score = p.TotalWeight / float64(len(p.Edges)*len(p.Edges))
	}
	p.Goodness = 1 / (1 + p.TotalWeight)
	return p
}
