package keyword

import (
	"sort"
	"sync"
)

// topkSel is a bounded top-k configuration selector: it keeps the k best
// scored configurations seen so far in a min-heap (worst kept at the root)
// with the mappings of kept configurations copied into a fixed k-row arena.
// Admission order is the total order the full enumeration path realizes with
// its stable sort — score descending, enumeration index ascending — so the
// selected set and its final ordering are exactly the first k entries of the
// fully-sorted configuration list, without materializing (or sorting) the
// whole cartesian product.
type topkSel struct {
	k    int
	nkw  int       // mappings per configuration
	ents []topkEnt // min-heap while selecting, worst at ents[0]
	rows []Mapping // k rows × nkw backing arena for kept mappings
}

type topkEnt struct {
	cfg Configuration // Mappings aliases one arena row
	idx int           // enumeration index: the stable-sort tie break
	row int
}

// reset prepares the selector for one enumeration, reusing the arena and
// heap storage across pooled calls.
func (s *topkSel) reset(k, nkw int) {
	s.k, s.nkw = k, nkw
	if cap(s.ents) < k {
		s.ents = make([]topkEnt, 0, k)
	}
	s.ents = s.ents[:0]
	if cap(s.rows) < k*nkw {
		s.rows = make([]Mapping, k*nkw)
	}
	s.rows = s.rows[:cap(s.rows)]
}

func (s *topkSel) row(i int) []Mapping {
	return s.rows[i*s.nkw : (i+1)*s.nkw]
}

// worse orders the heap: a sifts toward the root when it loses to b under
// (score descending, enumeration index ascending).
func (s *topkSel) worse(a, b topkEnt) bool {
	if a.cfg.Score != b.cfg.Score {
		return a.cfg.Score < b.cfg.Score
	}
	return a.idx > b.idx
}

// offer considers one scored configuration whose Mappings alias the
// enumeration's current buffer; admitted configurations are copied into the
// arena. idx must increase across calls (the enumeration order).
func (s *topkSel) offer(cfg Configuration, idx int) {
	if len(s.ents) < s.k {
		r := len(s.ents)
		copy(s.row(r), cfg.Mappings)
		cfg.Mappings = s.row(r)
		s.ents = append(s.ents, topkEnt{cfg: cfg, idx: idx, row: r})
		s.siftUp(len(s.ents) - 1)
		return
	}
	// Full heap: the newcomer enters only by strictly beating the worst
	// kept entry. An equal score loses — the newcomer's enumeration index
	// is necessarily higher, which is exactly the stable-sort tie order.
	if cfg.Score <= s.ents[0].cfg.Score {
		return
	}
	r := s.ents[0].row
	copy(s.row(r), cfg.Mappings)
	cfg.Mappings = s.row(r)
	s.ents[0] = topkEnt{cfg: cfg, idx: idx, row: r}
	s.siftDown(0)
}

func (s *topkSel) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.worse(s.ents[i], s.ents[p]) {
			return
		}
		s.ents[i], s.ents[p] = s.ents[p], s.ents[i]
		i = p
	}
}

func (s *topkSel) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < len(s.ents) && s.worse(s.ents[l], s.ents[w]) {
			w = l
		}
		if r < len(s.ents) && s.worse(s.ents[r], s.ents[w]) {
			w = r
		}
		if w == i {
			return
		}
		s.ents[i], s.ents[w] = s.ents[w], s.ents[i]
		i = w
	}
}

// take extracts the kept configurations in final rank order, copying their
// mappings out of the pooled arena into one caller-owned backing array (the
// same single-backing layout the full enumeration path returns).
func (s *topkSel) take() []Configuration {
	ents := s.ents
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].cfg.Score != ents[j].cfg.Score {
			return ents[i].cfg.Score > ents[j].cfg.Score
		}
		return ents[i].idx < ents[j].idx
	})
	configs := make([]Configuration, len(ents))
	backing := make([]Mapping, 0, len(ents)*s.nkw)
	for i, e := range ents {
		start := len(backing)
		backing = append(backing, e.cfg.Mappings...)
		configs[i] = e.cfg
		configs[i].Mappings = backing[start:len(backing):len(backing)]
	}
	return configs
}

// prune implements the PRUNE procedure of §V-B over scored candidates in
// their retrieval order: candidates at or above the exact-match threshold
// 1−ε expel all others; otherwise the κ best are kept, plus the κ-th
// place's ties when that σ is positive, and then zero-similarity ones are
// dropped unless nothing else is left (trimZero). The kept candidates come
// out by σ descending, ties in retrieval order — exactly the prefix a
// stable sort of the whole slice followed by the cut would keep — but no
// sort runs: a bounded insertion keeps the selection in a prefix of cands
// itself, so the pooled buffer is the only storage. Similarities are never
// NaN (embedding.Model scores lie in [0, 1]), so σ is totally ordered.
func prune(cands []Mapping, k int, eps float64) []Mapping {
	if len(cands) == 0 {
		return nil
	}
	exact := false
	for i := range cands {
		if cands[i].Sim >= 1-eps {
			exact = true
			break
		}
	}
	n := 0 // cands[:n] is the selection so far, in final order
	for _, c := range cands {
		switch {
		case exact:
			if c.Sim < 1-eps {
				continue
			}
		case n >= k:
			// Below the κ-th σ, or tied with it where ties are not kept:
			// a later candidate never displaces an equal earlier one.
			if cut := cands[k-1].Sim; c.Sim < cut || c.Sim == cut && cut <= 0 {
				continue
			}
		}
		// Insert after every kept candidate with σ ≥ c.Sim. cands[n] is
		// free: it is c itself or a candidate already passed over.
		j := n
		for j > 0 && cands[j-1].Sim < c.Sim {
			cands[j] = cands[j-1]
			j--
		}
		cands[j] = c
		n++
		// The tail past κ holds ties of the old κ-th σ; they stay only
		// while that σ is still the κ-th.
		if !exact && n > k && cands[k].Sim < cands[k-1].Sim {
			n = k
		}
	}
	if exact {
		return cands[:n]
	}
	return trimZero(cands[:n])
}

// trimZero drops zero-similarity candidates unless everything is zero.
// The filter runs in place (candidates are pooled scratch, never aliased
// by a caller), writing each kept element at or before its original
// position.
func trimZero(ms []Mapping) []Mapping {
	nz := ms[:0]
	for _, c := range ms {
		if c.Sim > 0 {
			nz = append(nz, c)
		}
	}
	if len(nz) == 0 {
		return ms
	}
	return nz
}

// mapScratch is the per-request working state of MapKeywordsCtx, pooled so
// the serving hot path stops paying one allocation storm per call: candidate
// buffers, the per-keyword pruned views, interned-ID rows, the enumeration's
// current-selection buffers and the bounded top-k selector all live here.
// Nothing in it escapes a call — returned configurations always own fresh
// backing (see take and the full enumeration path).
type mapScratch struct {
	perKeyword [][]Mapping
	cands      [][]Mapping // reusable per-keyword candidate buffers
	perIDs     [][]candID
	idRows     [][]candID // retained backing for perIDs rows
	current    []Mapping
	curIDs     []candID
	sel        topkSel
}

var mapScratchPool = sync.Pool{New: func() any { return new(mapScratch) }}

// grab sizes the scratch for n keywords and returns per-call views.
func (sc *mapScratch) grab(n int) {
	if cap(sc.perKeyword) < n {
		sc.perKeyword = make([][]Mapping, n)
		sc.cands = make([][]Mapping, n)
		sc.idRows = make([][]candID, n)
		sc.perIDs = make([][]candID, n)
	}
	sc.perKeyword = sc.perKeyword[:n]
	sc.cands = sc.cands[:n]
	sc.idRows = sc.idRows[:n]
	sc.perIDs = sc.perIDs[:n]
	if cap(sc.current) < n {
		sc.current = make([]Mapping, n)
		sc.curIDs = make([]candID, n)
	}
	sc.current = sc.current[:n]
	sc.curIDs = sc.curIDs[:n]
}

// release clears row views that alias per-call data and returns the scratch
// to the pool. The Mapping values kept in the buffers reference strings
// owned by the long-lived database/index, so retaining capacity is safe.
func (sc *mapScratch) release() {
	for i := range sc.perKeyword {
		sc.perKeyword[i] = nil
		sc.perIDs[i] = nil
	}
	mapScratchPool.Put(sc)
}
