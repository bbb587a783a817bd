// Package scc implements Tarjan's strongly-connected-components algorithm
// (iteratively, so million-vertex graphs do not overflow the goroutine
// stack) and the condensation of a general digraph into a DAG.
//
// Per the paper's §3.1 ("From cyclic graphs to DAGs"), most reachability
// indexes assume a DAG: a general graph is reduced by coalescing every SCC
// into a representative vertex, and Qr(s,t) is answered by first checking
// whether s and t share an SCC, then consulting the DAG index.
package scc

import (
	"slices"

	"repro/internal/graph"
)

// Components computes the strongly connected components of g. The result
// assigns every vertex a component id in [0, Count); component ids are in
// reverse topological order of the condensation (i.e. if component a can
// reach component b in the condensation, then id(a) > id(b)), which is the
// order Tarjan's algorithm emits them in.
type Components struct {
	Comp  []uint32 // Comp[v] = component id of v
	Count int      // number of components
}

// Tarjan runs the iterative Tarjan SCC algorithm on g.
func Tarjan(g *graph.Digraph) *Components {
	n := g.N()
	const unvisited = ^uint32(0)
	index := make([]uint32, n)
	low := make([]uint32, n)
	comp := make([]uint32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []uint32
	var next uint32
	var count uint32

	// Explicit DFS frames: vertex and position within its successor list.
	type frame struct {
		v  uint32
		ei int
	}
	var frames []frame

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: uint32(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, uint32(root))
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			succ := g.Succ(v)
			advanced := false
			for f.ei < len(succ) {
				w := succ[f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = count
					if w == v {
						break
					}
				}
				count++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return &Components{Comp: comp, Count: int(count)}
}

// Condensation is the DAG obtained by coalescing each SCC of a general
// graph into one vertex, together with the vertex↔component maps needed to
// translate queries.
type Condensation struct {
	// DAG is the condensed graph; its vertex v corresponds to component v.
	DAG *graph.Digraph
	// Comp maps an original vertex to its DAG vertex.
	Comp []uint32
	// Size[c] is the number of original vertices in component c.
	Size []uint32
}

// Condense computes the condensation of g. Edge labels are preserved:
// a labeled edge (u, l, v) between distinct components becomes the labeled
// edge (comp(u), l, comp(v)) in the DAG (deduplicated). A labeled g keeps
// its label universe size even if some labels only occur inside SCCs.
//
// The DAG is laid out straight into CSR form: count each component's
// out-degree over g's rows (skipping intra-component edges), fill the
// rows, then sort and deduplicate each row by (To, Label). Sorting the
// short rows independently costs far less than sorting one global edge
// list, and the result is the layout graph.Builder.Freeze would produce.
func Condense(g *graph.Digraph) *Condensation {
	c := Tarjan(g)
	comp, k := c.Comp, c.Count
	labeled := g.Labeled()

	// off[c+2] counts c's outgoing cross-component edges; after the prefix
	// sum off[c+1] is c's first slot and its fill cursor, leaving off[c+1]
	// at c's end once every edge is placed (the same trick as the graph
	// package's transpose).
	off := make([]uint32, k+2)
	for u := 0; u < g.N(); u++ {
		cu := comp[u]
		for _, v := range g.Succ(graph.V(u)) {
			if comp[v] != cu {
				off[cu+2]++
			}
		}
	}
	for i := 2; i < k+2; i++ {
		off[i] += off[i-1]
	}
	total := off[k+1]
	succ := make([]graph.V, total)
	var lab []graph.Label
	if labeled {
		lab = make([]graph.Label, total)
	}
	for u := 0; u < g.N(); u++ {
		cu := comp[u]
		succU := g.Succ(graph.V(u))
		var labU []graph.Label
		if labeled {
			labU = g.SuccLabels(graph.V(u))
		}
		for i, v := range succU {
			if cv := comp[v]; cv != cu {
				j := off[cu+1]
				off[cu+1]++
				succ[j] = cv
				if labeled {
					lab[j] = labU[i]
				}
			}
		}
	}
	off = off[:k+1]

	// Sort and deduplicate each row in place, compacting the rows toward
	// the front. A labeled row is sorted as packed (To, Label) keys.
	var keys []uint64
	w, lo := uint32(0), uint32(0)
	for cc := 0; cc < k; cc++ {
		hi := off[cc+1]
		off[cc] = w
		if !labeled {
			row := succ[lo:hi]
			slices.Sort(row)
			w += uint32(copy(succ[w:], slices.Compact(row)))
		} else {
			keys = keys[:0]
			for i := lo; i < hi; i++ {
				keys = append(keys, uint64(succ[i])<<16|uint64(lab[i]))
			}
			slices.Sort(keys)
			for _, key := range slices.Compact(keys) {
				succ[w], lab[w] = graph.V(key>>16), graph.Label(key)
				w++
			}
		}
		lo = hi
	}
	off[k] = w
	if w < total {
		// Parallel edges collapsed: keep exactly-sized arrays, as Freeze does.
		succ = slices.Clone(succ[:w])
		if labeled {
			lab = slices.Clone(lab[:w])
		}
	}

	size := make([]uint32, k)
	for _, cc := range comp {
		size[cc]++
	}
	numLabels := 0
	if labeled {
		numLabels = g.Labels()
	}
	dag := graph.FromCSR(k, numLabels, off, succ, lab)
	return &Condensation{DAG: dag, Comp: comp, Size: size}
}

// SameComponent reports whether u and v are in the same SCC.
func (c *Condensation) SameComponent(u, v graph.V) bool {
	return c.Comp[u] == c.Comp[v]
}
