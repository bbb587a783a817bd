package reach

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/traversal"
)

// TestCheckedInCyclicSnapshotAnswersExactly pins the component numbering
// on-disk snapshots depend on. testdata/cyclic-er200.* is a cyclic
// ErdosRenyi graph (n=200, m=260, seed 1: five non-trivial SCCs) and the
// mapped BFL snapshot built over its condensation, both written by an
// earlier version of the code. A mapped BFL snapshot stores labels over
// condensed-DAG vertex ids and is checked only by vertex count, so if
// scc.Condense ever renumbered components or reordered rows, the warm
// DB would load without error and answer wrongly; every pair is checked
// against BFS on the loaded graph.
func TestCheckedInCyclicSnapshotAnswersExactly(t *testing.T) {
	g, err := LoadGraphSnapshot(filepath.Join("testdata", "cyclic-er200.graph.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 {
		t.Fatalf("loaded graph has %d vertices, want 200", g.N())
	}
	db, err := NewDBCtx(context.Background(), g, DBConfig{
		Metrics:             true,
		PlainSnapshotMapped: filepath.Join("testdata", "cyclic-er200.bfl.snap"),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := db.MetricsSnapshot()
	for _, span := range snap.Build {
		if span.Name == "index/build" {
			t.Fatalf("warm start rebuilt the index instead of loading it: %+v", snap.Build)
		}
	}
	for s := 0; s < g.N(); s++ {
		want := traversal.ReachableFrom(g, V(s))
		for tv := 0; tv < g.N(); tv++ {
			got, err := db.Reach(V(s), V(tv))
			if err != nil {
				t.Fatal(err)
			}
			if got != want.Test(tv) {
				t.Fatalf("Reach(%d,%d) = %v, BFS says %v", s, tv, got, want.Test(tv))
			}
		}
	}
}
