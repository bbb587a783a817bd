package reach

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
)

// randomPairs draws n uniform pairs over g's vertices, s == t included.
func randomPairs(g *Graph, n int, seed int64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{S: V(rng.Intn(g.N())), T: V(rng.Intn(g.N()))}
	}
	return pairs
}

// checkBatchDifferential asserts DB.BatchReachCtx == per-pair
// DB.ReachCtx == the index-free kernel over live, the graph the DB is
// meant to answer for.
func checkBatchDifferential(t *testing.T, db *DB, live *Graph, pairs []Pair, mode string) {
	t.Helper()
	ctx := context.Background()
	got, err := db.BatchReachCtx(ctx, pairs)
	if err != nil {
		t.Fatalf("%s: BatchReachCtx: %v", mode, err)
	}
	kernel, err := BatchReach(nil, live, pairs, 0)
	if err != nil {
		t.Fatalf("%s: kernel: %v", mode, err)
	}
	for i, p := range pairs {
		point, err := db.ReachCtx(ctx, p.S, p.T)
		if err != nil {
			t.Fatalf("%s: ReachCtx(%d,%d): %v", mode, p.S, p.T, err)
		}
		if got[i] != point || point != kernel[i] {
			t.Fatalf("%s: pair %d (%d,%d): batch %v, point %v, kernel %v",
				mode, i, p.S, p.T, got[i], point, kernel[i])
		}
	}
}

// indexBatches sums the Batches and BatchQueries counters over every
// instrumented index of db.
func indexBatches(t *testing.T, db *DB) (batches, queries int64) {
	t.Helper()
	snap, ok := db.MetricsSnapshot()
	if !ok {
		t.Fatal("metrics disabled")
	}
	for _, ix := range snap.Indexes {
		batches += ix.Batches
		queries += ix.BatchQueries
	}
	return batches, queries
}

// TestDBBatchDifferential: in every serving mode a DB batch answers
// exactly what its point queries and the index-free kernel answer, on a
// cyclic graph and on a DAG.
func TestDBBatchDifferential(t *testing.T) {
	graphs := map[string]*Graph{
		"dag":    gen.RandomDAG(gen.Config{N: 400, M: 1600, Seed: 31}),
		"cyclic": gen.ErdosRenyi(gen.Config{N: 300, M: 900, Seed: 32}),
	}
	for name, g := range graphs {
		pairs := randomPairs(g, 1500, 33)

		t.Run(name+"/frozen", func(t *testing.T) {
			db, err := NewDB(g, DBConfig{Metrics: true})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			b0, q0 := indexBatches(t, db)
			checkBatchDifferential(t, db, g, pairs, "frozen")
			// The batch went through the serving index, not the kernel.
			if b1, q1 := indexBatches(t, db); b1 != b0+1 || q1 != q0+int64(len(pairs)) {
				t.Fatalf("index batch counters %d/%d -> %d/%d, want +1/+%d", b0, q0, b1, q1, len(pairs))
			}
		})

		t.Run(name+"/autotuned", func(t *testing.T) {
			db := forceSwap(t, g, KindGRIPP, KindPLL, true)
			checkBatchDifferential(t, db, g, pairs, "autotuned")
			snap, _ := db.MetricsSnapshot()
			if pll := snap.Indexes[db.plainCurrent().Name()]; pll.Batches != 1 {
				t.Fatalf("swapped-in %s index counted %d batches, want 1 (indexes %v)",
					db.plainCurrent().Name(), pll.Batches, snap.Indexes)
			}
		})

		t.Run(name+"/mutable", func(t *testing.T) {
			db := newMutableDB(t, g, MutationConfig{RebuildThreshold: -1, Fsync: FsyncNever}, true)
			mirror := mutableCopy(g)
			ctx := context.Background()
			rng := rand.New(rand.NewSource(34))
			checkBatchDifferential(t, db, g, pairs, "empty overlay")
			for i := 0; i < 12; i++ {
				u, v := V(rng.Intn(g.N())), V(rng.Intn(g.N()))
				mirror.insert(u, v)
				if err := db.AddEdge(ctx, u, v); err != nil {
					t.Fatal(err)
				}
			}
			if ov := db.mut.state.Load().ov; ov.AddedCount() == 0 || ov.RemovedCount() != 0 {
				t.Fatalf("overlay +%d/-%d, want adds only", ov.AddedCount(), ov.RemovedCount())
			}
			checkBatchDifferential(t, db, mirror.freeze(), pairs, "adds-only overlay")
			for _, e := range g.EdgeList()[:20] {
				mirror.remove(e.From, e.To)
				if err := db.RemoveEdge(ctx, e.From, e.To); err != nil {
					t.Fatal(err)
				}
			}
			if ov := db.mut.state.Load().ov; ov.RemovedCount() == 0 {
				t.Fatal("overlay has no removals")
			}
			checkBatchDifferential(t, db, mirror.freeze(), pairs, "overlay with removals")
		})

		t.Run(name+"/sharded", func(t *testing.T) {
			db, err := NewShardedDB(g, ShardedConfig{Shards: 3, Options: Options{Seed: 35}})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			checkBatchDifferential(t, db.DB, g, pairs, "sharded k=3")
		})
	}
}

// cancelAfter wraps an index and cancels a context once it has answered
// `after` queries, so a batch is canceled from inside its own run.
type cancelAfter struct {
	Index
	after  int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfter) Reach(s, t V) bool {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.Index.Reach(s, t)
}

// TestDBBatchCanceledMidway: a ctx canceled while the batch runs returns
// ctx.Err() and no partial results.
func TestDBBatchCanceledMidway(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 400, M: 1600, Seed: 36})
	ix, err := Build(KindBFL, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &cancelAfter{Index: ix, after: 100, cancel: cancel}
	db, err := NewDB(g, DBConfig{PlainIndex: c})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pairs := randomPairs(g, 4096, 37)
	out, err := db.BatchReachCtx(ctx, pairs)
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("canceled batch = %d results, err %v; want nil, context.Canceled", len(out), err)
	}
	if n := c.calls.Load(); n >= int64(len(pairs)) {
		t.Fatalf("canceled batch still answered all %d pairs", n)
	}
}

// TestDBBatchPanicCounted: a panic contained inside a DB batch surfaces
// as ErrIndexPanic and is counted like a point query's.
func TestDBBatchPanicCounted(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 100, M: 300, Seed: 38})
	db, err := NewDB(g, DBConfig{PlainIndex: panicIndex{}, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.BatchReachCtx(context.Background(), randomPairs(g, 256, 39)); !errors.Is(err, ErrIndexPanic) {
		t.Fatalf("BatchReachCtx err = %v, want ErrIndexPanic", err)
	}
	snap, _ := db.MetricsSnapshot()
	if snap.Panics != 1 || snap.Errors != 1 {
		t.Fatalf("panics/errors = %d/%d, want 1/1", snap.Panics, snap.Errors)
	}
}
