package reach

import (
	"context"

	"repro/internal/core"
	"repro/internal/labelset"
	"repro/internal/par"
	"repro/internal/scratch"
	"repro/internal/traversal"
)

// labelSetOf adapts a raw 64-bit mask to the internal label-set type.
func labelSetOf(mask uint64) labelset.Set { return labelset.Set(mask) }

// Pair is one (source, target) query of a batch.
type Pair struct {
	S, T V
}

// batchObserver is implemented by instrumented indexes (core.Instrumented)
// to count batch submissions; per-query metrics record through Reach.
type batchObserver interface {
	ObserveBatch(n int)
}

// batchGrain is the number of queries a batch worker claims per steal.
// Small enough that one expensive run of queries (deep guided-DFS
// fallbacks cluster in adversarial orderings) cannot strand a worker with
// a long private chunk, large enough to amortize the atomic claim.
const batchGrain = 16

// BatchReach evaluates many plain reachability queries concurrently over
// a shared index. Indexes in this library are safe for concurrent readers
// once built (they are immutable after construction; dynamic indexes must
// not be updated while a batch runs). g must be the graph ix was built
// over — it bounds the vertex validation; every pair is checked before
// any query runs, so an out-of-range pair yields ErrVertexRange with no
// partial work. workers <= 0 selects GOMAXPROCS.
// Instrumented indexes (see Instrument) additionally count the batch and
// its size; individual queries record through the wrapper as usual — the
// per-query counters are atomic, so concurrent workers stay race-free.
//
// Throughput-oriented workloads (the §5 "many negative queries" regime)
// are embarrassingly parallel; this helper is the §5 parallel-computation
// direction applied to the query side. A panic inside the index on any
// worker stops the batch and surfaces as ErrIndexPanic.
//
// A nil index selects the index-free bit-parallel path: the batch is cut
// into blocks of 64 pairs and each block is answered by ONE multi-source
// BFS sweep (traversal.MultiSourceReach) in which every pair owns one bit
// of a per-vertex frontier word — ~len(pairs)/64 graph sweeps instead of
// len(pairs) separate searches. It is the no-index path (ad-hoc
// analytics, or validating a build), exact on general graphs; a DB's
// batches go through its serving index instead (DB.BatchReachCtx).
func BatchReach(ix Index, g *Graph, pairs []Pair, workers int) (out []bool, err error) {
	return BatchReachCtx(nil, ix, g, pairs, workers)
}

// BatchReachCtx is BatchReach under a context: workers poll ctx between
// work claims (one grain of queries, or one 64-pair block on the nil-index
// path) and the batch returns ctx.Err() with no partial results when the
// context is canceled or past its deadline. A nil ctx never cancels.
func BatchReachCtx(ctx context.Context, ix Index, g *Graph, pairs []Pair, workers int) (out []bool, err error) {
	if workers < 0 {
		workers = 0 // documented contract: <= 0 selects GOMAXPROCS
	}
	n := g.N()
	if ix != nil {
		return reachLoop(ctx, n, pairs, workers, ix, ix.Reach)
	}
	return runBatch(ctx, n, pairs, func(out []bool, stop func() bool) {
		blocks := (len(pairs) + traversal.WordSources - 1) / traversal.WordSources
		par.Do(workers, blocks, func(b int) {
			if stop() {
				return
			}
			lo := b * traversal.WordSources
			hi := min(lo+traversal.WordSources, len(pairs))
			sc := scratch.Get(0)
			defer scratch.Put(sc)
			words := sc.Words(n)
			srcs := sc.Aux[:0]
			for i := lo; i < hi; i++ {
				srcs = append(srcs, pairs[i].S)
			}
			sc.Aux = srcs
			traversal.MultiSourceReach(g, srcs, words)
			for i := lo; i < hi; i++ {
				out[i] = words[pairs[i].T]&(1<<uint(i-lo)) != 0
			}
		})
	})
}

// reachLoop is the indexed batch loop shared by BatchReachCtx and
// DB.BatchReachCtx. Workers claim batchGrain-sized runs of pairs from a
// shared counter (work stealing: a cluster of expensive negatives cannot
// strand one worker with a long static chunk) and answer each pair with
// reach, polling for cancellation once per grain — also on the serial
// path, where one claim spans the whole batch. The batch is counted on ix
// when that is an instrumented index.
func reachLoop(ctx context.Context, n int, pairs []Pair, workers int, ix Index, reach func(s, t V) bool) ([]bool, error) {
	return runBatch(ctx, n, pairs, func(out []bool, stop func() bool) {
		if bo, ok := ix.(batchObserver); ok {
			bo.ObserveBatch(len(pairs))
		}
		par.DoGrain(workers, len(pairs), batchGrain, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if (i-lo)%batchGrain == 0 && stop() {
					return
				}
				out[i] = reach(pairs[i].S, pairs[i].T)
			}
		})
	})
}

// runBatch holds the batch contract around one answering loop: every
// pair is validated against an n-vertex graph before any work runs, an
// already-done ctx returns its error, loop's workers poll stop between
// claims, a batch canceled midway returns ctx.Err() with no partial
// results, and a panic on any worker surfaces as ErrIndexPanic.
func runBatch(ctx context.Context, n int, pairs []Pair, loop func(out []bool, stop func() bool)) (out []bool, err error) {
	for _, p := range pairs {
		if err := core.CheckPair(n, p.S, p.T); err != nil {
			return nil, err
		}
	}
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		done = ctx.Done()
	}
	stop := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	defer core.Recover(&err)
	out = make([]bool, len(pairs))
	loop(out, stop)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LCRPair is one alternation-constrained query of a batch.
type LCRPair struct {
	S, T    V
	Allowed uint64
}

// BatchReachLC is BatchReach for alternation-constrained queries.
func BatchReachLC(ix LCRIndex, g *Graph, pairs []LCRPair, workers int) (out []bool, err error) {
	n := g.N()
	for _, p := range pairs {
		if err := core.CheckPair(n, p.S, p.T); err != nil {
			return nil, err
		}
	}
	if workers < 0 {
		workers = 0
	}
	defer core.Recover(&err)
	out = make([]bool, len(pairs))
	par.DoGrain(workers, len(pairs), batchGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			p := pairs[i]
			out[i] = p.S == p.T || ix.ReachLC(p.S, p.T, labelSetOf(p.Allowed))
		}
	})
	return out, nil
}
