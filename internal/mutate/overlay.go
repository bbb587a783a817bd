package mutate

import (
	"slices"
	"sync/atomic"

	"repro/internal/bitset"
)

// Overlay is the net difference between the live graph and the frozen
// graph the current index was built from: the edges added since the
// freeze and the edges removed from it. It is maintained as a persistent
// value — writers Clone then Apply then publish, readers use whatever
// snapshot they loaded — so query paths never lock.
//
// Both sets are *net*: re-adding a removed edge cancels the removal
// rather than recording both, and removing a never-present edge records
// nothing. That makes add/remove/add of the same edge (including
// self-loops and edges duplicated in the base graph, which the base
// stores deduplicated) converge to exactly one state per edge.
//
// The sets are stored by vertex, once per direction, for the two halves
// of the search: succ holds each vertex's added successors and the
// targets of its removed out-edges, pred the same toward each vertex.
// Both are copy-on-write tables, so a Clone copies one pointer per chunk
// of vertices and an Apply copies the chunks it writes — a commit costs
// what it changes, not the overlay's size.
type Overlay struct {
	succ, pred     table
	added, removed int // net edge counts
	// touched holds a bit for every endpoint of an added or removed
	// edge, so the search consults the tables only at those vertices. It
	// is a superset: an un-add or a cancelled removal leaves its bits set
	// until the next Rebase, which costs a lookup, never an answer.
	touched *bitset.Set
	// gen stamps the chunks this overlay may write in place; every other
	// chunk is shared with a clone and is copied before a write.
	gen uint64
}

// delta is one vertex's overlaid adjacency in one direction: the added
// neighbours, and the base neighbours whose edge is removed. A published
// delta is never written; a change replaces it.
type delta struct {
	added, cut []uint32
}

// chunkBits sets the table's copy-on-write granularity: a Clone copies
// n/256 chunk pointers and a write copies one 256-entry chunk, which
// about balances the two for a commit of a few ops.
const (
	chunkBits = 8
	chunkMask = 1<<chunkBits - 1
)

// table maps a vertex to its delta through chunks of 1<<chunkBits
// entries.
type table []*chunk

type chunk struct {
	gen   uint64
	delta [1 << chunkBits]*delta
}

// lastGen numbers overlay generations; chunk ownership compares them.
var lastGen atomic.Uint64

// get returns v's delta, the zero delta when v has none.
func (t table) get(v uint32) delta {
	if i := int(v >> chunkBits); i < len(t) && t[i] != nil {
		if d := t[i].delta[v&chunkMask]; d != nil {
			return *d
		}
	}
	return delta{}
}

// slot returns v's entry for writing, first copying its chunk unless
// generation gen owns it.
func (t *table) slot(v uint32, gen uint64) **delta {
	i := int(v >> chunkBits)
	if i >= len(*t) {
		*t = append(*t, make([]*chunk, i+1-len(*t))...)
	}
	c := (*t)[i]
	switch {
	case c == nil:
		c = &chunk{gen: gen}
		(*t)[i] = c
	case c.gen != gen:
		cp := *c
		cp.gen = gen
		c = &cp
		(*t)[i] = c
	}
	return &c.delta[v&chunkMask]
}

// each calls fn for every vertex with a delta, in vertex order.
func (t table) each(fn func(v uint32, d *delta)) {
	for i, c := range t {
		if c == nil {
			continue
		}
		for j, d := range c.delta {
			if d != nil {
				fn(uint32(i<<chunkBits|j), d)
			}
		}
	}
}

// NewOverlay returns an empty overlay.
func NewOverlay() *Overlay {
	return &Overlay{touched: &bitset.Set{}, gen: lastGen.Add(1)}
}

func edgeKey(from, to uint32) uint64 { return uint64(from)<<32 | uint64(to) }

// Clone returns an independent copy. Both o and the copy take fresh
// generations, so neither writes a chunk they now share. Like Apply, it
// must not run concurrently with another Clone or Apply on o.
func (o *Overlay) Clone() *Overlay {
	o.gen = lastGen.Add(1)
	return &Overlay{
		succ:    slices.Clone(o.succ),
		pred:    slices.Clone(o.pred),
		added:   o.added,
		removed: o.removed,
		touched: o.touched.Clone(),
		gen:     lastGen.Add(1),
	}
}

// Apply folds one op into the overlay. inBase reports whether the edge
// exists in the frozen base graph; it decides whether an add is a
// revert-of-remove, a no-op, or a genuine addition (and dually for
// removes), keeping both sets net.
func (o *Overlay) Apply(op Op, inBase func(from, to uint32) bool) {
	u, v := op.From, op.To
	added, removed := o.HasAdded(u, v), o.HasRemoved(u, v)
	switch {
	case op.Remove && added:
		o.drop(u, v, false)
	case op.Remove && !removed && inBase(u, v):
		o.insert(u, v, true)
	case !op.Remove && removed:
		o.drop(u, v, true)
	case !op.Remove && !added && !inBase(u, v):
		o.insert(u, v, false)
	}
}

// insert records from→to as added, or as removed when cut is set, in
// both tables, and touches both endpoints.
func (o *Overlay) insert(from, to uint32, cut bool) {
	if cut {
		o.removed++
	} else {
		o.added++
	}
	o.succ.link(o.gen, from, to, cut)
	o.pred.link(o.gen, to, from, cut)
	o.touched.Set(int(from))
	o.touched.Set(int(to))
}

// drop is insert's inverse, except that touched bits stay set.
func (o *Overlay) drop(from, to uint32, cut bool) {
	if cut {
		o.removed--
	} else {
		o.added--
	}
	o.succ.unlink(o.gen, from, to, cut)
	o.pred.unlink(o.gen, to, from, cut)
}

// link adds w to v's added or cut list in a fresh delta.
func (t *table) link(gen uint64, v, w uint32, cut bool) {
	p := t.slot(v, gen)
	var d delta
	if *p != nil {
		d = **p
	}
	if cut {
		d.cut = append(slices.Clip(d.cut), w)
	} else {
		d.added = append(slices.Clip(d.added), w)
	}
	*p = &d
}

// unlink removes w from v's added or cut list in a fresh delta, and
// clears v's entry once both lists are empty.
func (t *table) unlink(gen uint64, v, w uint32, cut bool) {
	p := t.slot(v, gen)
	d := **p
	l := &d.added
	if cut {
		l = &d.cut
	}
	if i := slices.Index(*l, w); i >= 0 {
		*l = slices.Concat((*l)[:i], (*l)[i+1:])
	}
	if len(d.added)+len(d.cut) == 0 {
		*p = nil
	} else {
		*p = &d
	}
}

// Empty reports whether the overlay changes nothing.
func (o *Overlay) Empty() bool { return o.added == 0 && o.removed == 0 }

// AddedCount returns the number of net-added edges.
func (o *Overlay) AddedCount() int { return o.added }

// RemovedCount returns the number of net-removed edges.
func (o *Overlay) RemovedCount() int { return o.removed }

// Size returns the total number of overlaid edges.
func (o *Overlay) Size() int { return o.added + o.removed }

// HasAdded reports whether (from,to) is net-added.
func (o *Overlay) HasAdded(from, to uint32) bool {
	return slices.Contains(o.succ.get(from).added, to)
}

// HasRemoved reports whether (from,to) is net-removed.
func (o *Overlay) HasRemoved(from, to uint32) bool {
	return slices.Contains(o.succ.get(from).cut, to)
}

// AddedSucc returns the net-added successors of u. The slice is shared;
// callers must not mutate it.
func (o *Overlay) AddedSucc(u uint32) []uint32 { return o.succ.get(u).added }

// AddedEdges calls fn for every net-added edge, in source order.
func (o *Overlay) AddedEdges(fn func(from, to uint32)) {
	o.succ.each(func(u uint32, d *delta) {
		for _, v := range d.added {
			fn(u, v)
		}
	})
}

// RemovedEdges calls fn for every net-removed edge, in source order.
func (o *Overlay) RemovedEdges(fn func(from, to uint32)) {
	o.succ.each(func(u uint32, d *delta) {
		for _, v := range d.cut {
			fn(u, v)
		}
	})
}

// Rebase computes the overlay that carries cur's live graph forward over
// a new base. cur is the live overlay (over the old base g0); snap is
// the snapshot of cur that the reindexer folded into the new base g1.
// The result expresses the same live graph as cur, but relative to g1.
//
// It cannot be computed from cur alone: an op that arrived during the
// rebuild may have *reverted* a change that snap folded into g1 (remove
// e taken into the snapshot, then e re-added while rebuilding — e sits
// in neither of cur's net sets, yet g1 lacks it). So every edge touched
// by either overlay is re-derived from first principles: its live
// presence (cur's verdict, falling back to g0) against its presence in
// g1.
func Rebase(cur, snap *Overlay, g0Has, g1Has func(from, to uint32) bool) *Overlay {
	out := NewOverlay()
	seen := make(map[uint64]struct{}, cur.Size()+snap.Size())
	consider := func(from, to uint32) {
		k := edgeKey(from, to)
		if _, ok := seen[k]; ok {
			return
		}
		seen[k] = struct{}{}
		var present bool
		switch {
		case cur.HasAdded(from, to):
			present = true
		case cur.HasRemoved(from, to):
			present = false
		default:
			present = g0Has(from, to)
		}
		switch {
		case present && !g1Has(from, to):
			out.insert(from, to, false)
		case !present && g1Has(from, to):
			out.insert(from, to, true)
		}
	}
	cur.AddedEdges(consider)
	cur.RemovedEdges(consider)
	snap.AddedEdges(consider)
	snap.RemovedEdges(consider)
	return out
}
