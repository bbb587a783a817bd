package scc

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// condenseViaBuilder is the reference condensation: every cross-component
// edge goes through graph.Builder, whose Freeze sorts the global edge list
// and deduplicates it. Condense must reproduce it exactly.
func condenseViaBuilder(g *graph.Digraph) *Condensation {
	c := Tarjan(g)
	var b *graph.Builder
	if g.Labeled() {
		b = graph.NewLabeledBuilder(c.Count)
		b.ReserveLabels(g.Labels())
	} else {
		b = graph.NewBuilder(c.Count)
	}
	g.Edges(func(e graph.Edge) bool {
		cu, cv := c.Comp[e.From], c.Comp[e.To]
		if cu != cv {
			if g.Labeled() {
				b.AddLabeledEdge(cu, cv, e.Label)
			} else {
				b.AddEdge(cu, cv)
			}
		}
		return true
	})
	size := make([]uint32, c.Count)
	for _, cc := range c.Comp {
		size[cc]++
	}
	return &Condensation{DAG: b.MustFreeze(), Comp: c.Comp, Size: size}
}

// snapshotBytes serializes every CSR array, the vertex and edge counts,
// the label universe and the name registries of g.
func snapshotBytes(t testing.TB, g *graph.Digraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkSameCondensation fails unless Condense(g) equals the Builder-based
// reference field by field: component map, sizes, and a byte-identical
// condensed DAG.
func checkSameCondensation(t testing.TB, name string, g *graph.Digraph) {
	t.Helper()
	want := condenseViaBuilder(g)
	got := Condense(g)
	if !slices.Equal(got.Comp, want.Comp) {
		t.Fatalf("%s: Comp differs", name)
	}
	if !slices.Equal(got.Size, want.Size) {
		t.Fatalf("%s: Size = %v, want %v", name, got.Size, want.Size)
	}
	gd, wd := got.DAG, want.DAG
	if gd.N() != wd.N() || gd.M() != wd.M() || gd.Labels() != wd.Labels() || gd.Labeled() != wd.Labeled() {
		t.Fatalf("%s: DAG shape n=%d m=%d labels=%d labeled=%v, want n=%d m=%d labels=%d labeled=%v",
			name, gd.N(), gd.M(), gd.Labels(), gd.Labeled(), wd.N(), wd.M(), wd.Labels(), wd.Labeled())
	}
	for v := 0; v < wd.N(); v++ {
		u := graph.V(v)
		if !slices.Equal(gd.Succ(u), wd.Succ(u)) || !slices.Equal(gd.Pred(u), wd.Pred(u)) {
			t.Fatalf("%s: adjacency of %d: succ %v pred %v, want succ %v pred %v",
				name, v, gd.Succ(u), gd.Pred(u), wd.Succ(u), wd.Pred(u))
		}
		if wd.Labeled() && (!slices.Equal(gd.SuccLabels(u), wd.SuccLabels(u)) ||
			!slices.Equal(gd.PredLabels(u), wd.PredLabels(u))) {
			t.Fatalf("%s: labels of %d differ", name, v)
		}
	}
	if !bytes.Equal(snapshotBytes(t, gd), snapshotBytes(t, wd)) {
		t.Fatalf("%s: condensed DAG snapshots differ", name)
	}
}

// multigraph builds an n-vertex graph from raw (u, v, label) triples,
// keeping self-loops and parallel edges; the label field is ignored
// unless labeled is set.
func multigraph(n int, labeled bool, edges [][3]int) *graph.Digraph {
	var b *graph.Builder
	if labeled {
		b = graph.NewLabeledBuilder(n)
	} else {
		b = graph.NewBuilder(n)
	}
	for _, e := range edges {
		if labeled {
			b.AddLabeledEdge(graph.V(e[0]), graph.V(e[1]), graph.Label(e[2]))
		} else {
			b.AddEdge(graph.V(e[0]), graph.V(e[1]))
		}
	}
	return b.MustFreeze()
}

func TestCondenseMatchesBuilderEdgeCases(t *testing.T) {
	// SCC A = {0, 1}, SCC B = {2, 3}; four parallel A→B edges collapse to
	// one DAG edge per distinct label.
	parallel := [][3]int{
		{0, 1, 0}, {1, 0, 0}, {2, 3, 1}, {3, 2, 1},
		{0, 2, 2}, {1, 3, 2}, {0, 3, 5}, {1, 2, 2}, {1, 2, 0},
	}
	giant := func(n int, labeled bool) *graph.Digraph {
		var es [][3]int
		for i := 0; i < n; i++ {
			es = append(es, [3]int{i, (i + 1) % n, i % 3}, [3]int{i, (i * 7) % n, 2})
		}
		return multigraph(n, labeled, es)
	}
	// Label 4 occurs only on the 0⇄1 cycle, so the condensation has no
	// edge carrying it but must keep a five-label universe.
	hiddenLabel := graph.NewLabeledBuilder(4)
	hiddenLabel.AddLabeledEdge(0, 1, 4)
	hiddenLabel.AddLabeledEdge(1, 0, 4)
	hiddenLabel.AddLabeledEdge(1, 2, 0)
	hiddenLabel.AddLabeledEdge(2, 3, 1)
	onlyHidden := graph.NewLabeledBuilder(3)
	onlyHidden.AddLabeledEdge(0, 1, 3)
	onlyHidden.AddLabeledEdge(1, 0, 2)
	cases := map[string]*graph.Digraph{
		"empty":                graph.NewBuilder(0).MustFreeze(),
		"empty-labeled":        graph.NewLabeledBuilder(0).MustFreeze(),
		"isolated":             graph.NewBuilder(7).MustFreeze(),
		"isolated-labeled":     multigraph(5, true, nil),
		"self-loops":           multigraph(4, false, [][3]int{{0, 0, 0}, {1, 1, 0}, {1, 2, 0}, {2, 2, 0}, {3, 3, 0}}),
		"self-loops-labeled":   multigraph(3, true, [][3]int{{0, 0, 1}, {0, 0, 2}, {0, 1, 1}, {1, 1, 0}, {2, 0, 3}}),
		"self-loop-in-cycle":   multigraph(3, false, [][3]int{{0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {1, 2, 0}}),
		"parallel":             multigraph(4, false, parallel),
		"parallel-labeled":     multigraph(4, true, parallel),
		"hidden-label":         hiddenLabel.MustFreeze(),
		"only-hidden-label":    onlyHidden.MustFreeze(),
		"giant-scc":            giant(300, false),
		"giant-scc-labeled":    giant(300, true),
		"giant-plus-tail":      multigraph(4, false, [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 0, 0}, {2, 3, 0}, {1, 3, 0}}),
		"fig1":                 graph.Fig1Plain(),
		"fig1-labeled":         graph.Fig1Labeled(),
		"reverse-edge-to-tail": multigraph(5, true, [][3]int{{4, 0, 0}, {0, 4, 1}, {3, 1, 2}, {1, 3, 2}, {2, 0, 0}, {4, 2, 1}}),
	}
	for name, g := range cases {
		checkSameCondensation(t, name, g)
	}
	if got := Condense(hiddenLabel.MustFreeze()).DAG.Labels(); got != 5 {
		t.Fatalf("hidden-label: DAG label universe %d, want 5", got)
	}
}

// TestCondenseMatchesBuilderGenerated runs the differential check over
// 150 generated graphs: DAGs, cyclic Erdős–Rényi graphs, scale-free DAGs
// and their labeled variants, plus random multigraphs with self-loops
// and parallel edges.
func TestCondenseMatchesBuilderGenerated(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		n := 20 + int(seed)*17
		dag := gen.RandomDAG(gen.Config{N: n, M: 3 * n, Seed: seed})
		er := gen.ErdosRenyi(gen.Config{N: n, M: n + int(seed)*n/8, Seed: seed})
		sf := gen.ScaleFree(n, 3, seed)
		graphs := map[string]*graph.Digraph{
			"dag":        dag,
			"er":         er,
			"sf":         sf,
			"er-zipf":    gen.Zipf(er, 1+int(seed)%8, 1.2, seed),
			"er-uniform": gen.UniformLabels(er, 2+int(seed)%5, seed),
		}
		rng := rand.New(rand.NewSource(seed))
		var es [][3]int
		for i := 0; i < 4*n; i++ {
			es = append(es, [3]int{rng.Intn(n), rng.Intn(n), rng.Intn(4)})
		}
		graphs["multi"] = multigraph(n, seed%2 == 0, es)
		for name, g := range graphs {
			checkSameCondensation(t, fmt.Sprintf("%s/seed=%d", name, seed), g)
		}
	}
}

// FuzzCondense decodes arbitrary bytes into a small, possibly labeled
// multigraph (self-loops and parallel edges included) and requires
// Condense to equal the Builder-based reference exactly. Byte 0 picks
// n (1..48), bit 0 of byte 1 picks labeled, and the rest are (u, v) or
// (u, v, label) triples; testdata/fuzz/FuzzCondense holds the corpus.
func FuzzCondense(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0})
	f.Add([]byte{3, 0, 0, 1, 1, 0, 1, 2})
	f.Add([]byte{4, 1, 0, 1, 0, 1, 0, 0, 2, 3, 1, 3, 2, 1, 0, 2, 2, 1, 3, 2, 0, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			checkSameCondensation(t, "empty", graph.NewBuilder(0).MustFreeze())
			return
		}
		n := 1 + int(data[0])%48
		labeled := data[1]&1 == 1
		step := 2
		if labeled {
			step = 3
		}
		var es [][3]int
		for p := 2; p+step <= len(data); p += step {
			e := [3]int{int(data[p]) % n, int(data[p+1]) % n, 0}
			if labeled {
				e[2] = int(data[p+2]) % graph.MaxLabels
			}
			es = append(es, e)
		}
		checkSameCondensation(t, "fuzz", multigraph(n, labeled, es))
	})
}

// condensationBytes is the resident size of c: its DAG's CSR arrays plus
// the component map and the size table.
func condensationBytes(c *Condensation) int {
	return c.DAG.Bytes() + 4*len(c.Comp) + 4*len(c.Size)
}

// TestCondenseAllocationGate bounds what Condense allocates, in bytes, by
// 1.25x the condensation it returns: Tarjan's work arrays plus the CSR
// arrays, with no edge list or append growth on the way. Allocation
// counts are deterministic, so unlike a timing gate this cannot flake.
func TestCondenseAllocationGate(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 20_000, M: 100_000, Seed: 1})
	var c *Condensation
	best := uint64(1 << 62)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c = Condense(g)
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	size := condensationBytes(c)
	limit := uint64(size) * 5 / 4
	t.Logf("Condense allocated %d bytes for a %d-byte condensation (%.2fx)",
		best, size, float64(best)/float64(size))
	if best > limit {
		t.Fatalf("Condense allocated %d bytes, gate is 1.25x the %d-byte condensation = %d",
			best, size, limit)
	}
}
