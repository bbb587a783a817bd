package mutate

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/scratch"
)

// This file is the exact online search over the live graph: the frozen
// base g with the overlay's removed edges deleted and its added edges
// inserted. It runs when the frozen index alone cannot decide a query
// (see reach's mutState.reach). The untouched majority of vertices are
// expanded straight from g's CSR rows; only a vertex whose touched bit
// is set looks up its delta (added neighbours, cut edges). Visited sets
// and frontiers come from the pooled scratch arena, so a steady-state
// search allocates nothing.

// Reach reports whether t is reachable from s in the live graph g ±
// overlay. g must be the base graph the overlay is relative to.
func (o *Overlay) Reach(g *graph.Digraph, s, t uint32) bool {
	if s == t {
		return true
	}
	return o.search(g, s, t, false)
}

// ReachPlus reports whether t is reachable from s over a path of at
// least one edge in the live graph g ± overlay: it holds for s == t
// only through a cycle. It is one search seeded with all of s's live
// successors.
func (o *Overlay) ReachPlus(g *graph.Digraph, s, t uint32) bool {
	return o.search(g, s, t, true)
}

// search is a bidirectional BFS that always expands the smaller of the
// two frontiers, as traversal.BiBFS does. With plus set the forward side
// starts from s's live successors instead of s itself.
func (o *Overlay) search(g *graph.Digraph, s, t uint32, plus bool) bool {
	n := g.N()
	sc := scratch.Get(n)
	defer scratch.Put(sc)
	fvis, bvis := sc.Visited(), sc.Visited2(n)
	bvis.Set(int(t))
	if plus {
		var hit bool
		sc.Aux = append(sc.Aux, s)
		if sc.Queue, hit = o.step(g, true, sc.Aux, fvis, bvis, sc.Queue); hit {
			return true
		}
	} else {
		fvis.Set(int(s))
		sc.Queue = append(sc.Queue, s)
	}
	sc.Queue2 = append(sc.Queue2, t)
	for len(sc.Queue) > 0 && len(sc.Queue2) > 0 {
		var hit bool
		if len(sc.Queue) <= len(sc.Queue2) {
			sc.Aux, hit = o.step(g, true, sc.Queue, fvis, bvis, sc.Aux[:0])
			sc.Queue, sc.Aux = sc.Aux, sc.Queue
		} else {
			sc.Aux, hit = o.step(g, false, sc.Queue2, bvis, fvis, sc.Aux[:0])
			sc.Queue2, sc.Aux = sc.Aux, sc.Queue2
		}
		if hit {
			return true
		}
	}
	return false
}

// step expands one BFS level of the live graph, over successors when fwd
// and over predecessors otherwise. It appends every unseen neighbour of
// frontier to next, marking it in seen, and reports true as soon as a
// neighbour is in goal (the other side's visited set).
func (o *Overlay) step(g *graph.Digraph, fwd bool, frontier []uint32, seen, goal *bitset.Set, next []uint32) ([]uint32, bool) {
	touched, deltas := o.touched, o.succ
	if !fwd {
		deltas = o.pred
	}
	for _, v := range frontier {
		var base []uint32
		if fwd {
			base = g.Succ(v)
		} else {
			base = g.Pred(v)
		}
		var d delta
		if touched.Test(int(v)) {
			d = deltas.get(v)
		}
		for _, w := range base {
			if len(d.cut) > 0 && slices.Contains(d.cut, w) {
				continue
			}
			if goal.Test(int(w)) {
				return next, true
			}
			if !seen.Test(int(w)) {
				seen.Set(int(w))
				next = append(next, w)
			}
		}
		for _, w := range d.added {
			if goal.Test(int(w)) {
				return next, true
			}
			if !seen.Test(int(w)) {
				seen.Set(int(w))
				next = append(next, w)
			}
		}
	}
	return next, false
}

// Path returns a shortest s→t path in the live graph g ± overlay, or nil
// when t is unreachable. Parents are tracked only for the vertices the
// BFS visits: the arena's Aux[i] holds the queue index of Queue[i]'s
// parent, so the only allocation is the returned path.
func (o *Overlay) Path(g *graph.Digraph, s, t uint32) []uint32 {
	if s == t {
		return []uint32{s}
	}
	sc := scratch.Get(g.N())
	defer scratch.Put(sc)
	seen := sc.Visited()
	seen.Set(int(s))
	sc.Queue = append(sc.Queue, s)
	sc.Aux = append(sc.Aux, 0)
	for qi := 0; qi < len(sc.Queue); qi++ {
		v := sc.Queue[qi]
		d := o.succ.get(v)
		for i, nbrs := range [2][]uint32{g.Succ(v), d.added} {
			for _, w := range nbrs {
				if i == 0 && slices.Contains(d.cut, w) || seen.Test(int(w)) {
					continue
				}
				seen.Set(int(w))
				sc.Queue = append(sc.Queue, w)
				sc.Aux = append(sc.Aux, uint32(qi))
				if w == t {
					return backtrack(sc.Queue, sc.Aux)
				}
			}
		}
	}
	return nil
}

// backtrack walks the parent indices from the last queue entry back to
// the root and returns the vertices root-first.
func backtrack(queue, parent []uint32) []uint32 {
	hops := 0
	for i := len(queue) - 1; i != 0; i = int(parent[i]) {
		hops++
	}
	path := make([]uint32, hops+1)
	for i, j := len(queue)-1, hops; ; i, j = int(parent[i]), j-1 {
		path[j] = queue[i]
		if i == 0 {
			return path
		}
	}
}
