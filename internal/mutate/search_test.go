package mutate

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/traversal"
)

// liveGraph materialises g ± o as a frozen graph: the oracle's input.
func liveGraph(g *graph.Digraph, o *Overlay) *graph.Digraph {
	b := graph.NewBuilder(g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Succ(uint32(u)) {
			if !o.HasRemoved(uint32(u), v) {
				b.AddEdge(uint32(u), v)
			}
		}
	}
	o.AddedEdges(b.AddEdge)
	return b.MustFreeze()
}

// stepClosure runs the search's level expansion in one direction until
// it stops growing and returns every vertex it reached from root.
func stepClosure(o *Overlay, g *graph.Digraph, fwd bool, root uint32) *bitset.Set {
	seen := bitset.New(g.N())
	seen.Set(int(root))
	frontier := []uint32{root}
	for len(frontier) > 0 {
		frontier, _ = o.step(g, fwd, frontier, seen, &bitset.Set{}, nil)
	}
	return seen
}

// checkSearch compares Reach, ReachPlus and Path on every pair, and the
// forward and backward expansions from every vertex, against BFS over
// the materialised live graph.
func checkSearch(t *testing.T, g *graph.Digraph, o *Overlay) {
	t.Helper()
	checkIndexes(t, o)
	live := liveGraph(g, o)
	n := g.N()
	for r := 0; r < n; r++ {
		root := uint32(r)
		fwd, bwd := stepClosure(o, g, true, root), stepClosure(o, g, false, root)
		wantFwd, wantBwd := traversal.ReachableFrom(live, root), traversal.Reaching(live, root)
		for v := 0; v < n; v++ {
			if fwd.Test(v) != wantFwd.Test(v) {
				t.Fatalf("forward expansion from %d: vertex %d reached=%v, want %v", root, v, fwd.Test(v), wantFwd.Test(v))
			}
			if bwd.Test(v) != wantBwd.Test(v) {
				t.Fatalf("backward expansion from %d: vertex %d reached=%v, want %v", root, v, bwd.Test(v), wantBwd.Test(v))
			}
		}
	}
	for s := uint32(0); s < uint32(n); s++ {
		for d := uint32(0); d < uint32(n); d++ {
			want := traversal.BFS(live, s, d)
			if got := o.Reach(g, s, d); got != want {
				t.Fatalf("Reach(%d, %d) = %v, want %v", s, d, got, want)
			}
			wantPlus := false
			for _, w := range live.Succ(s) {
				if w == d || traversal.BFS(live, w, d) {
					wantPlus = true
					break
				}
			}
			if got := o.ReachPlus(g, s, d); got != wantPlus {
				t.Fatalf("ReachPlus(%d, %d) = %v, want %v", s, d, got, wantPlus)
			}
			checkPath(t, live, o.Path(g, s, d), traversal.WitnessPath(live, s, d), s, d)
		}
	}
}

// checkPath requires a live s→d path exactly when the oracle has one, of
// the oracle's (shortest) length.
func checkPath(t *testing.T, live *graph.Digraph, got, want []uint32, s, d uint32) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("Path(%d, %d) = %v, want length %d (%v)", s, d, got, len(want), want)
	}
	if got == nil {
		return
	}
	if got[0] != s || got[len(got)-1] != d {
		t.Fatalf("Path(%d, %d) = %v has wrong endpoints", s, d, got)
	}
	for i := 1; i < len(got); i++ {
		if !live.HasEdge(got[i-1], got[i]) {
			t.Fatalf("Path(%d, %d) = %v uses non-live edge %d→%d", s, d, got, got[i-1], got[i])
		}
	}
}

// applyAll folds ops into a fresh overlay over g.
func applyAll(g *graph.Digraph, ops ...Op) *Overlay {
	o := NewOverlay()
	for _, op := range ops {
		o.Apply(op, g.HasEdge)
	}
	return o
}

// scriptOps converts a generated update script, keeping the ops keep
// accepts.
func scriptOps(script []gen.UpdateOp, keep func(gen.UpdateOp) bool) []Op {
	var ops []Op
	for _, u := range script {
		if keep(u) {
			ops = append(ops, Op{Remove: !u.Insert, From: u.Edge.From, To: u.Edge.To})
		}
	}
	return ops
}

func all(gen.UpdateOp) bool        { return true }
func inserts(u gen.UpdateOp) bool  { return u.Insert }
func removals(u gen.UpdateOp) bool { return !u.Insert }

// TestOverlaySearchDifferential checks the search against BFS over the
// materialised live graph on every overlay shape the serving path meets.
func TestOverlaySearchDifferential(t *testing.T) {
	dag := gen.RandomDAG(gen.Config{N: 60, M: 150, Seed: 11})
	cyclic := gen.ErdosRenyi(gen.Config{N: 50, M: 140, Seed: 12})
	loops := graph.FromEdges(8, [][2]uint32{{0, 1}, {1, 2}, {2, 2}, {2, 3}, {3, 4}, {4, 4}, {5, 6}})
	dagScript := gen.UpdateScript(dag, 120, true, 13)
	var backEdges []Op // reverse base edges: every one closes a cycle
	for i, e := range dag.EdgeList() {
		if i%7 == 0 {
			backEdges = append(backEdges, add(e.To, e.From))
		}
	}
	tests := []struct {
		name string
		g    *graph.Digraph
		ops  []Op
	}{
		{"empty", dag, nil},
		{"adds only", dag, scriptOps(dagScript, inserts)},
		{"removals only", dag, scriptOps(dagScript, removals)},
		{"mixed", dag, scriptOps(dagScript, all)},
		{"cycle-creating adds on a DAG", dag, append(scriptOps(dagScript, removals)[:10], backEdges...)},
		{"cyclic base, mixed", cyclic, scriptOps(gen.UpdateScript(cyclic, 100, false, 14), all)},
		{"self-loops", loops, []Op{add(0, 0), add(6, 6), remove(2, 2), add(4, 0), remove(1, 2)}},
		{"add remove re-add one edge", loops, []Op{add(4, 5), remove(4, 5), add(4, 5), remove(0, 1), add(0, 1), remove(0, 1)}},
		{"un-add", loops, []Op{add(4, 5), add(6, 0), add(3, 7), remove(6, 0), remove(4, 5)}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			checkSearch(t, tc.g, applyAll(tc.g, tc.ops...))
		})
	}
}

// TestOverlaySearchAfterRebase drives the reindexer hand-off: snapshot
// the overlay, keep applying ops (some reverting snapshotted changes),
// fold the snapshot into a new base, Rebase, and search the result.
func TestOverlaySearchAfterRebase(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g0      *graph.Digraph
		dagSafe bool
	}{
		{"dag", gen.RandomDAG(gen.Config{N: 50, M: 130, Seed: 21}), true},
		{"cyclic", gen.ErdosRenyi(gen.Config{N: 40, M: 120, Seed: 22}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g0 := tc.g0
			script := scriptOps(gen.UpdateScript(g0, 80, tc.dagSafe, 23), all)
			cur := applyAll(g0, script[:50]...)
			snap := cur.Clone()
			g1 := liveGraph(g0, snap)
			for _, op := range script[50:] {
				cur.Apply(op, g0.HasEdge)
			}
			// Revert a few snapshotted changes while "rebuilding".
			rng := rand.New(rand.NewSource(24))
			for _, op := range script[:50] {
				if rng.Intn(4) == 0 {
					op.Remove = !op.Remove
					cur.Apply(op, g0.HasEdge)
				}
			}
			want := liveGraph(g0, cur)
			out := Rebase(cur, snap, g0.HasEdge, g1.HasEdge)
			if got := liveGraph(g1, out); !sameGraph(got, want) {
				t.Fatal("rebased overlay expresses a different live graph")
			}
			checkSearch(t, g1, out)
		})
	}
}

func sameGraph(a, b *graph.Digraph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		sa, sb := a.Succ(uint32(v)), b.Succ(uint32(v))
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
	}
	return true
}
