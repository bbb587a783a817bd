package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// frozenEdges freezes b and returns its edge list, sorted.
func frozenEdges(t *testing.T, b *Builder) []Edge {
	t.Helper()
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	es := g.EdgeList()
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		if es[i].To != es[j].To {
			return es[i].To < es[j].To
		}
		return es[i].Label < es[j].Label
	})
	return es
}

// TestBuilderRemoveEdge drives add/remove sequences and checks the frozen
// result. RemoveEdge must delete every occurrence — duplicates and
// self-loops included — or an add/remove/add sequence driven through the
// mutation overlay diverges from the graph it claims to describe.
func TestBuilderRemoveEdge(t *testing.T) {
	type step struct {
		add    bool
		e      Edge
		wantRm bool // for removes: expected return
	}
	adds := func(es ...Edge) []step {
		var ss []step
		for _, e := range es {
			ss = append(ss, step{add: true, e: e})
		}
		return ss
	}
	rm := func(e Edge, want bool) step { return step{e: e, wantRm: want} }

	tests := []struct {
		name  string
		n     int
		steps []step
		want  []Edge
	}{
		{
			name:  "remove only edge",
			n:     3,
			steps: append(adds(Edge{From: 0, To: 1}), rm(Edge{From: 0, To: 1}, true)),
			want:  nil,
		},
		{
			name:  "remove absent edge reports false",
			n:     3,
			steps: append(adds(Edge{From: 0, To: 1}), rm(Edge{From: 1, To: 2}, false)),
			want:  []Edge{{From: 0, To: 1}},
		},
		{
			name: "remove deletes every duplicate",
			n:    3,
			steps: append(adds(
				Edge{From: 0, To: 1}, Edge{From: 0, To: 1}, Edge{From: 0, To: 1}, Edge{From: 1, To: 2},
			), rm(Edge{From: 0, To: 1}, true)),
			want: []Edge{{From: 1, To: 2}},
		},
		{
			name: "self-loop added twice fully removed",
			n:    2,
			steps: append(adds(
				Edge{From: 1, To: 1}, Edge{From: 1, To: 1}, Edge{From: 0, To: 1},
			), rm(Edge{From: 1, To: 1}, true)),
			want: []Edge{{From: 0, To: 1}},
		},
		{
			name: "add remove add converges to one edge",
			n:    3,
			steps: []step{
				{add: true, e: Edge{From: 0, To: 2}},
				rm(Edge{From: 0, To: 2}, true),
				{add: true, e: Edge{From: 0, To: 2}},
			},
			want: []Edge{{From: 0, To: 2}},
		},
		{
			name: "self-loop add remove add converges",
			n:    2,
			steps: []step{
				{add: true, e: Edge{From: 1, To: 1}},
				{add: true, e: Edge{From: 1, To: 1}},
				rm(Edge{From: 1, To: 1}, true),
				{add: true, e: Edge{From: 1, To: 1}},
			},
			want: []Edge{{From: 1, To: 1}},
		},
		{
			name: "second remove of same edge reports false",
			n:    3,
			steps: []step{
				{add: true, e: Edge{From: 0, To: 1}},
				rm(Edge{From: 0, To: 1}, true),
				rm(Edge{From: 0, To: 1}, false),
			},
			want: nil,
		},
		{
			name: "exact-match only: other endpoints survive",
			n:    4,
			steps: append(adds(
				Edge{From: 0, To: 1}, Edge{From: 1, To: 0}, Edge{From: 0, To: 2},
			), rm(Edge{From: 0, To: 1}, true)),
			want: []Edge{{From: 0, To: 2}, {From: 1, To: 0}},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(tc.n)
			for i, s := range tc.steps {
				if s.add {
					b.AddEdge(s.e.From, s.e.To)
					continue
				}
				if got := b.RemoveEdge(s.e); got != s.wantRm {
					t.Fatalf("step %d: RemoveEdge(%v) = %v, want %v", i, s.e, got, s.wantRm)
				}
			}
			got := frozenEdges(t, b)
			if len(got) != len(tc.want) {
				t.Fatalf("frozen edges = %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("frozen edges = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestBuilderRemoveEdgeLabeled: removal matches the full (from,to,label)
// triple, so parallel edges under different labels are independent.
func TestBuilderRemoveEdgeLabeled(t *testing.T) {
	b := NewBuilder(2)
	a := b.LabelID("a")
	c := b.LabelID("c")
	b.AddLabeledEdge(0, 1, a)
	b.AddLabeledEdge(0, 1, c)
	if !b.RemoveEdge(Edge{From: 0, To: 1, Label: a}) {
		t.Fatal("labeled removal missed")
	}
	got := frozenEdges(t, b)
	if len(got) != 1 || got[0] != (Edge{From: 0, To: 1, Label: c}) {
		t.Fatalf("frozen edges = %v, want only the c-labeled edge", got)
	}
}

// TestBuilderRemoveEdgeViaMutate: the frozen→Mutate→RemoveEdge→Freeze
// round trip the reindexer uses preserves the sorted edge order contract.
func TestBuilderRemoveEdgeViaMutate(t *testing.T) {
	g := FromEdges(4, [][2]V{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	b := Mutate(g)
	if !b.RemoveEdge(Edge{From: 1, To: 2}) {
		t.Fatal("removal of frozen edge missed")
	}
	b.AddEdge(1, 2) // re-add: must converge to the original graph
	g2, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("M = %d, want %d", g2.M(), g.M())
	}
	want := frozenEdges(t, Mutate(g))
	got := frozenEdges(t, Mutate(g2))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edges = %v, want %v", got, want)
		}
	}
}

// TestBuilderRemoveEdges: the one-pass set removal deletes every
// occurrence of every listed edge (duplicates, self-loops, exact label
// match), reports how many entries it deleted, and leaves the builder
// exactly as the equivalent sequence of RemoveEdge calls would.
func TestBuilderRemoveEdges(t *testing.T) {
	set := func(es ...Edge) map[Edge]struct{} {
		m := make(map[Edge]struct{}, len(es))
		for _, e := range es {
			m[e] = struct{}{}
		}
		return m
	}
	tests := []struct {
		name    string
		edges   []Edge
		drop    map[Edge]struct{}
		removed int
		want    []Edge
	}{
		{
			name:  "nil set is a no-op",
			edges: []Edge{{From: 0, To: 1}, {From: 1, To: 2}},
			want:  []Edge{{From: 0, To: 1}, {From: 1, To: 2}},
		},
		{
			name:  "absent edges remove nothing",
			edges: []Edge{{From: 0, To: 1}},
			drop:  set(Edge{From: 1, To: 0}, Edge{From: 2, To: 2}),
			want:  []Edge{{From: 0, To: 1}},
		},
		{
			name:    "duplicates and self-loops all go",
			edges:   []Edge{{From: 0, To: 1}, {From: 2, To: 2}, {From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 2}},
			drop:    set(Edge{From: 0, To: 1}, Edge{From: 2, To: 2}),
			removed: 4,
			want:    []Edge{{From: 1, To: 2}},
		},
		{
			name:    "labels must match exactly",
			edges:   []Edge{{From: 0, To: 1, Label: 0}, {From: 0, To: 1, Label: 3}, {From: 1, To: 2, Label: 3}},
			drop:    set(Edge{From: 0, To: 1, Label: 3}, Edge{From: 1, To: 2, Label: 1}),
			removed: 1,
			want:    []Edge{{From: 0, To: 1, Label: 0}, {From: 1, To: 2, Label: 3}},
		},
		{
			name:    "every edge",
			edges:   []Edge{{From: 0, To: 1}, {From: 1, To: 0}},
			drop:    set(Edge{From: 0, To: 1}, Edge{From: 1, To: 0}),
			removed: 2,
			want:    nil,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			b := NewLabeledBuilder(3)
			for _, e := range tc.edges {
				b.AddLabeledEdge(e.From, e.To, e.Label)
			}
			if got := b.RemoveEdges(tc.drop); got != tc.removed {
				t.Fatalf("RemoveEdges = %d, want %d", got, tc.removed)
			}
			got := frozenEdges(t, b)
			if len(got) != len(tc.want) {
				t.Fatalf("frozen edges = %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("frozen edges = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestBuilderRemoveEdgesMatchesRemoveEdge removes a random set from a
// Mutate-loaded builder and requires the result to equal removing the
// same edges one RemoveEdge call at a time, entry for entry and in the
// same order — so the sorted list stays sorted and Freeze skips the sort.
func TestBuilderRemoveEdgesMatchesRemoveEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		n := 5 + rng.Intn(40)
		var pairs [][2]V
		for i := 0; i < 4*n; i++ {
			pairs = append(pairs, [2]V{V(rng.Intn(n)), V(rng.Intn(n))})
		}
		g := FromEdges(n, pairs)
		one, all := Mutate(g), Mutate(g)
		drop := make(map[Edge]struct{})
		for i := 0; i < 1+rng.Intn(2*n); i++ {
			e := Edge{From: V(rng.Intn(n)), To: V(rng.Intn(n))}
			drop[e] = struct{}{}
		}
		want := 0
		for e := range drop {
			before := len(one.edges)
			one.RemoveEdge(e)
			want += before - len(one.edges)
		}
		if got := all.RemoveEdges(drop); got != want {
			t.Fatalf("iter %d: RemoveEdges = %d, sequential RemoveEdge removed %d", iter, got, want)
		}
		if !slices.Equal(all.edges, one.edges) {
			t.Fatalf("iter %d: edge lists differ", iter)
		}
		if !slices.IsSortedFunc(all.edges, cmpEdge) {
			t.Fatalf("iter %d: removal broke the sorted order of a Mutate-loaded builder", iter)
		}
	}
}
