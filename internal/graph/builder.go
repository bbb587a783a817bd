package graph

import (
	"errors"
	"fmt"
	"slices"
)

// Builder accumulates vertices and edges and produces an immutable Digraph.
// It deduplicates parallel edges with identical labels and sorts adjacency,
// which the CSR binary searches rely on.
type Builder struct {
	n         int
	edges     []Edge
	labeled   bool
	numLabels int
	labelIDs  map[string]Label
	labelName []string
	vertIDs   map[string]V
	vertName  []string
}

// NewBuilder returns a Builder for a graph with n pre-declared vertices
// (0..n-1). More vertices may be added implicitly by AddEdge or explicitly
// by AddVertex.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NewLabeledBuilder returns a Builder for an edge-labeled graph.
func NewLabeledBuilder(n int) *Builder {
	return &Builder{n: n, labeled: true}
}

// N returns the current number of vertices.
func (b *Builder) N() int { return b.n }

// AddVertex allocates and returns a fresh vertex id.
func (b *Builder) AddVertex() V {
	v := V(b.n)
	b.n++
	return v
}

// NamedVertex returns the vertex with the given name, allocating it on first
// use. Mixing NamedVertex with AddVertex is allowed.
func (b *Builder) NamedVertex(name string) V {
	if b.vertIDs == nil {
		b.vertIDs = make(map[string]V)
	}
	if v, ok := b.vertIDs[name]; ok {
		return v
	}
	v := b.AddVertex()
	b.vertIDs[name] = v
	for len(b.vertName) <= int(v) {
		b.vertName = append(b.vertName, "")
	}
	b.vertName[v] = name
	return v
}

// LabelID returns the label id for the given name, allocating it on first
// use. Panics if the label universe would exceed MaxLabels.
func (b *Builder) LabelID(name string) Label {
	if b.labelIDs == nil {
		b.labelIDs = make(map[string]Label)
	}
	if l, ok := b.labelIDs[name]; ok {
		return l
	}
	if b.numLabels >= MaxLabels {
		panic(fmt.Sprintf("graph: label universe exceeds %d labels", MaxLabels))
	}
	l := Label(b.numLabels)
	b.numLabels++
	b.labelIDs[name] = l
	b.labelName = append(b.labelName, name)
	b.labeled = true
	return l
}

// TryLabelID is LabelID for untrusted input: instead of panicking when the
// label universe would exceed MaxLabels it returns ErrTooManyLabels, so
// parsers (graph.Read) can reject a hostile edge list with an error.
func (b *Builder) TryLabelID(name string) (Label, error) {
	if b.labelIDs != nil {
		if l, ok := b.labelIDs[name]; ok {
			return l, nil
		}
	}
	if b.numLabels >= MaxLabels {
		return 0, ErrTooManyLabels
	}
	return b.LabelID(name), nil
}

// ReserveLabels declares the label universe to contain at least k labels,
// even if some never occur on edges (e.g. after condensing a labeled graph
// whose rare labels only appeared inside SCCs).
func (b *Builder) ReserveLabels(k int) {
	if k > b.numLabels {
		b.numLabels = k
	}
	if k > 0 {
		b.labeled = true
	}
}

// AddEdge adds the directed edge (u, v). Vertices are allocated implicitly
// if u or v exceed the current vertex count.
func (b *Builder) AddEdge(u, v V) {
	b.ensure(u)
	b.ensure(v)
	b.edges = append(b.edges, Edge{From: u, To: v})
}

// AddLabeledEdge adds the directed edge (u, v) with label l.
func (b *Builder) AddLabeledEdge(u, v V, l Label) {
	b.ensure(u)
	b.ensure(v)
	b.labeled = true
	if int(l) >= b.numLabels {
		b.numLabels = int(l) + 1
	}
	b.edges = append(b.edges, Edge{From: u, To: v, Label: l})
}

// AddNamedEdge adds an edge between named vertices with a named label.
func (b *Builder) AddNamedEdge(from, label, to string) {
	u, v := b.NamedVertex(from), b.NamedVertex(to)
	b.AddLabeledEdge(u, v, b.LabelID(label))
}

func (b *Builder) ensure(v V) {
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
}

// ErrTooManyLabels is returned by Freeze when a labeled graph declares more
// than MaxLabels labels.
var ErrTooManyLabels = errors.New("graph: label universe exceeds 64 labels")

// cmpEdge orders edges by (From, To, Label) — the CSR layout order.
func cmpEdge(a, b Edge) int {
	switch {
	case a.From != b.From:
		if a.From < b.From {
			return -1
		}
		return 1
	case a.To != b.To:
		if a.To < b.To {
			return -1
		}
		return 1
	case a.Label != b.Label:
		if a.Label < b.Label {
			return -1
		}
		return 1
	}
	return 0
}

// Freeze sorts, deduplicates and lays out the accumulated edges as an
// immutable CSR Digraph.
func (b *Builder) Freeze() (*Digraph, error) {
	if b.labeled && b.numLabels > MaxLabels {
		return nil, ErrTooManyLabels
	}
	es := b.edges
	// SortFunc works on the concrete []Edge — no per-comparison interface
	// dispatch the reflect-based sort.Slice paid — and the IsSortedFunc
	// pre-check makes re-freezing an already-ordered edge list (Mutate of a
	// frozen graph, order-preserving RemoveEdge) a linear scan.
	if !slices.IsSortedFunc(es, cmpEdge) {
		slices.SortFunc(es, cmpEdge)
	}
	// Deduplicate identical (from, to, label) triples.
	dedup := es[:0]
	for i, e := range es {
		if i > 0 && e == es[i-1] {
			continue
		}
		dedup = append(dedup, e)
	}
	es = dedup

	g := &Digraph{n: b.n, m: len(es), numLabels: b.numLabels,
		labelName: b.labelName, vertName: b.vertName, names: &nameIndex{}}
	// The edges are sorted by From, so the forward rows are consecutive
	// runs of es.
	g.succOff = make([]uint32, b.n+1)
	g.succ = make([]V, len(es))
	if b.labeled {
		g.succLab = make([]Label, len(es))
	}
	for i, e := range es {
		g.succOff[e.From+1]++
		g.succ[i] = e.To
		if b.labeled {
			g.succLab[i] = e.Label
		}
	}
	for v := 0; v < b.n; v++ {
		g.succOff[v+1] += g.succOff[v]
	}
	g.transpose()
	return g, nil
}

// FromCSR returns the n-vertex Digraph whose forward adjacency is the CSR
// (succOff, succ, succLab): the successors of v are succ[succOff[v]:
// succOff[v+1]], each row sorted by (To, Label) and free of duplicate
// (To, Label) pairs — the layout Freeze produces. succLab is nil for an
// unlabeled graph; numLabels is the label-universe size. The slices are
// adopted, not copied, and the reverse adjacency is derived from them.
// Callers that already hold sorted rows (scc.Condense) use this to skip
// the Builder's edge list and its global sort.
func FromCSR(n, numLabels int, succOff []uint32, succ []V, succLab []Label) *Digraph {
	g := &Digraph{n: n, m: len(succ), numLabels: numLabels, names: &nameIndex{},
		succOff: succOff, succ: succ, succLab: succLab}
	g.transpose()
	return g
}

// transpose derives the reverse CSR (predOff, pred, predLab) from the
// forward CSR by a counting transpose. Rows are scanned in ascending
// source order, so every pred list comes out sorted by predecessor id,
// and a predecessor with several labels on one edge keeps them in label
// order.
func (g *Digraph) transpose() {
	n, m := g.n, len(g.succ)
	// off[v+2] counts v's in-degree; after the prefix sum off[v+1] is v's
	// first slot and serves as its fill cursor, so once every edge is
	// placed off[v+1] is v's end — off[:n+1] is then the finished offset
	// table, without a separate cursor array.
	off := make([]uint32, n+2)
	for _, v := range g.succ {
		off[v+2]++
	}
	for v := 2; v < n+2; v++ {
		off[v] += off[v-1]
	}
	g.pred = make([]V, m)
	if g.succLab != nil {
		g.predLab = make([]Label, m)
	}
	for u := 0; u < n; u++ {
		for i := g.succOff[u]; i < g.succOff[u+1]; i++ {
			v := g.succ[i]
			j := off[v+1]
			off[v+1]++
			g.pred[j] = V(u)
			if g.succLab != nil {
				g.predLab[j] = g.succLab[i]
			}
		}
	}
	g.predOff = off[:n+1]
}

// MustFreeze is Freeze that panics on error; for tests and generators whose
// inputs are valid by construction.
func (b *Builder) MustFreeze() *Digraph {
	g, err := b.Freeze()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds an unlabeled digraph with n vertices from an edge list.
func FromEdges(n int, edges [][2]V) *Digraph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.MustFreeze()
}

// Mutate returns a Builder pre-loaded with g's vertices and edges, for
// producing a modified copy (used by dynamic-index tests to rebuild
// oracles after updates).
func Mutate(g *Digraph) *Builder {
	b := NewBuilder(g.N())
	b.labeled = g.Labeled()
	b.numLabels = g.Labels()
	b.labelName = g.labelName
	b.vertName = g.vertName
	if g.vertName != nil {
		b.vertIDs = make(map[string]V)
		for v, name := range g.vertName {
			if name != "" {
				b.vertIDs[name] = V(v)
			}
		}
	}
	if g.labelName != nil {
		b.labelIDs = make(map[string]Label)
		for l, name := range g.labelName {
			if name != "" {
				b.labelIDs[name] = Label(l)
			}
		}
	}
	b.edges = g.EdgeList()
	return b
}

// RemoveEdge deletes every occurrence of the exact edge e from the
// builder and reports whether at least one was present. Removing all
// occurrences (not just the first) is what makes remove mean "the edge
// is gone": a builder fed duplicate AddEdge calls — or a self-loop added
// twice — would otherwise still freeze into a graph containing e, and an
// add/remove/add sequence driven through the mutation overlay would
// diverge from the graph it claims to describe. The removal preserves
// edge order (no swap-with-last), so a builder loaded from a frozen
// graph (Mutate) keeps its sorted edge list and the next Freeze skips
// sorting entirely instead of re-sorting to repair displaced elements.
func (b *Builder) RemoveEdge(e Edge) bool {
	n := len(b.edges)
	b.edges = slices.DeleteFunc(b.edges, func(x Edge) bool { return x == e })
	return len(b.edges) < n
}

// RemoveEdges deletes every occurrence of every edge in drop, with
// RemoveEdge's semantics and order preservation, in one pass over the
// edge list however many edges drop holds, and returns how many edge
// entries it deleted. Folding r removals into a graph of m edges costs
// O(m) instead of the O(m·r) of r RemoveEdge calls.
func (b *Builder) RemoveEdges(drop map[Edge]struct{}) int {
	if len(drop) == 0 {
		return 0
	}
	n := len(b.edges)
	b.edges = slices.DeleteFunc(b.edges, func(x Edge) bool {
		_, ok := drop[x]
		return ok
	})
	return n - len(b.edges)
}
