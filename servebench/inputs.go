package main

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/regexpath"
	"repro/internal/traversal"
)

// Request kinds.
const (
	kindReach uint8 = iota // GET /v1/reach
	kindLCR                // GET /v1/query with an alternation-star α
	kindRLC                // GET /v1/query with a concatenation-star α
	kindWrite              // POST /v1/mutate
)

// request is one generated request. Want is the oracle answer for query
// kinds of the frozen workloads; read-write reads race with writes, so
// theirs is unset and the workload is checked after its final Flush.
type request struct {
	Kind  uint8
	Alpha uint8 // index into inputs.Alphas
	S, T  uint32
	Write int32 // index into inputs.Writes
	Want  bool
}

// checkPair is a read with its oracle answer.
type checkPair struct {
	S, T uint32
	Want bool
}

// inputs is everything a workload sends and every answer it expects for
// one seed. The graph itself lives beside it in the cache directory.
type inputs struct {
	Version  int
	Workload string
	Seed     int64
	N        int
	Alphas   []string
	Reqs     []request
	// Batches and BatchWant are the /v1/batch request bodies (batch).
	Batches   [][]reach.Pair
	BatchWant [][]bool
	// Writes are the /v1/mutate bodies of read-write, 4 ops each; every
	// edge is touched at most once, so the final graph does not depend on
	// the order concurrent writes commit in.
	Writes [][]reach.EdgeOp
	// Ledger is the fixed read sample the traced replay times on the
	// read-write base graph, LedgerOverlay the same pairs answered after
	// the first LedgerOps write ops.
	Ledger        []checkPair
	LedgerOverlay []bool
	// CheckSrc/CheckDst span the pairs read-write verifies after its
	// final Flush, against BFS over the base graph plus acknowledged ops.
	CheckSrc, CheckDst []uint32
	GenSeconds         float64
}

// inputsVersion changes whenever generation changes, so stale cached
// inputs are regenerated rather than reused.
const inputsVersion = 3

// Workload sizes, fixed by the benchmark definition.
const (
	pointN, pointM   = 10_000, 40_000
	pointLabels      = 8
	pointReqs        = 1 << 19
	batchN, batchM   = 1_000_000, 4_000_000
	batchBodies      = 32
	batchPairs       = 1000
	batchSources     = 1000
	rwN, rwM         = 200_000, 800_000
	rwOpsPerWrite    = 4
	rwWriteShare     = 0.2
	rwMaxSeconds     = 60
	rwLedgerPairs    = 1024
	rwLedgerOps      = 2048
	rwCheckSources   = 64
	rwCheckTargets   = 32
	cacheKeepPerWork = 4
)

// pointAlphas are the fixed constraint expressions of point: the first
// four are alternation stars (LCR route), the rest concatenation stars
// (RLC route, sequences no longer than the RLC index's default κ=2).
var pointAlphas = []string{
	"(l0|l1)*", "(l0|l2)*", "(l1|l2|l3)*", "(l0|l3|l4|l5)*",
	"(l0.l1)*", "(l1.l0)*", "(l0.l2)*", "(l0.l0)*",
}

const pointLCRAlphas = 4

// inputDir is the cache directory of one (workload, seed).
func inputDir(dataDir, workload string, seed int64) string {
	return filepath.Join(dataDir, "inputs", fmt.Sprintf("%s-%d", workload, seed))
}

// loadInputs returns the cached inputs of (workload, seed), generating
// and caching them first when absent. Generation is not timed.
func loadInputs(dataDir, workload string, seed int64) (*inputs, string, error) {
	dir := inputDir(dataDir, workload, seed)
	if in, err := readInputs(dir); err == nil && in.Version == inputsVersion && in.Workload == workload && in.Seed == seed {
		return in, dir, nil
	}
	tmp := fmt.Sprintf("%s.tmp-%d", dir, os.Getpid())
	if err := os.RemoveAll(tmp); err != nil {
		return nil, "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, "", err
	}
	start := time.Now()
	var in *inputs
	var err error
	switch workload {
	case "point":
		in, err = genPoint(tmp, seed)
	case "batch":
		in, err = genBatch(tmp, seed)
	case "read-write":
		in, err = genReadWrite(tmp, seed, rwRate)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		os.RemoveAll(tmp)
		return nil, "", err
	}
	in.Version, in.Workload, in.Seed = inputsVersion, workload, seed
	in.GenSeconds = time.Since(start).Seconds()
	if err := writeInputs(tmp, in); err != nil {
		os.RemoveAll(tmp)
		return nil, "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, "", err
	}
	evictInputs(dataDir, workload, dir)
	return in, dir, nil
}

func readInputs(dir string) (*inputs, error) {
	f, err := os.Open(filepath.Join(dir, "inputs.gob"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	in := new(inputs)
	if err := gob.NewDecoder(bufio.NewReader(f)).Decode(in); err != nil {
		return nil, err
	}
	return in, nil
}

func writeInputs(dir string, in *inputs) error {
	return writeFile(filepath.Join(dir, "inputs.gob"), func(w *bufio.Writer) error {
		return gob.NewEncoder(w).Encode(in)
	})
}

func writeFile(path string, fill func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// evictInputs keeps the cache bounded: at most cacheKeepPerWork seeds per
// workload, dropping the least recently generated first.
func evictInputs(dataDir, workload, keep string) {
	matches, _ := filepath.Glob(filepath.Join(dataDir, "inputs", workload+"-*"))
	type entry struct {
		path string
		mod  time.Time
	}
	var es []entry
	for _, m := range matches {
		if m == keep || strings.Contains(filepath.Base(m), ".tmp-") {
			continue
		}
		if fi, err := os.Stat(m); err == nil {
			es = append(es, entry{m, fi.ModTime()})
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].mod.After(es[j].mod) })
	for i := cacheKeepPerWork - 1; i < len(es); i++ {
		os.RemoveAll(es[i].path)
	}
}

// writeTextGraph writes g in the edge-list format and reads it back the
// way the server boots (reach.ReadGraph): label ids are assigned in order
// of first appearance on read, so oracles run on the read-back graph.
func writeTextGraph(path string, g *graph.Digraph) (*graph.Digraph, error) {
	if err := writeFile(path, func(w *bufio.Writer) error { return reach.WriteGraph(w, g) }); err != nil {
		return nil, err
	}
	return readTextGraph(path)
}

func readTextGraph(path string) (*graph.Digraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return reach.ReadGraph(bufio.NewReaderSize(f, 1<<20))
}

// zipfVertices draws vertices with Zipf-skewed popularity: rank k has
// weight (1+k)^-1.1, and a seeded permutation decides which vertex holds
// which rank, so hot vertices are scattered over the graph.
type zipfVertices struct {
	z    *rand.Zipf
	perm []int
}

func newZipfVertices(rng *rand.Rand, n int) *zipfVertices {
	return &zipfVertices{z: rand.NewZipf(rng, 1.1, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (z *zipfVertices) next() uint32 { return uint32(z.perm[z.z.Uint64()]) }

// genPoint builds the labeled 10k-vertex DAG and the Zipf-skewed mix of
// /v1/reach (70%), LCR /v1/query (20%) and RLC /v1/query (10%).
func genPoint(dir string, seed int64) (*inputs, error) {
	g0 := gen.Zipf(gen.RandomDAG(gen.Config{N: pointN, M: pointM, Seed: seed}), pointLabels, 1.0, seed+1)
	g, err := writeTextGraph(filepath.Join(dir, "graph.txt"), g0)
	if err != nil {
		return nil, err
	}
	n := g.N()
	rng := rand.New(rand.NewSource(seed + 2))
	src, dst := newZipfVertices(rng, n), newZipfVertices(rng, n)
	in := &inputs{N: n, Alphas: pointAlphas, Reqs: make([]request, pointReqs)}
	for i := range in.Reqs {
		r := &in.Reqs[i]
		switch x := rng.Float64(); {
		case x < 0.7:
			r.Kind = kindReach
		case x < 0.9:
			r.Kind = kindLCR
			r.Alpha = uint8(rng.Intn(pointLCRAlphas))
		default:
			r.Kind = kindRLC
			r.Alpha = uint8(pointLCRAlphas + rng.Intn(len(pointAlphas)-pointLCRAlphas))
		}
		r.S = src.next()
		for r.T = dst.next(); r.T == r.S; r.T = dst.next() {
		}
	}
	if err := pointOracle(g, in); err != nil {
		return nil, err
	}
	return in, nil
}

// pointOracle fills every point request's answer: plain pairs from one
// forward BFS per distinct source, constrained pairs from
// traversal.LabelConstrainedBFS and traversal.ProductBFS over
// regexpath.Compile, memoized per distinct (s, t, α).
func pointOracle(g *graph.Digraph, in *inputs) error {
	masks := make([]uint64, len(in.Alphas))
	dfas := make([]*regexpath.DFA, len(in.Alphas))
	for i, a := range in.Alphas {
		ast, err := regexpath.Parse(a, regexpath.GraphResolver(g))
		if err != nil {
			return fmt.Errorf("alpha %q: %w", a, err)
		}
		cl := regexpath.Classify(ast)
		masks[i] = uint64(cl.Allowed)
		if dfas[i], err = regexpath.Compile(a, g); err != nil {
			return fmt.Errorf("alpha %q: %w", a, err)
		}
	}
	bySource := make(map[uint32][]int)
	type key struct {
		s, t  uint32
		alpha uint8
	}
	memo := make(map[key]bool)
	for i := range in.Reqs {
		r := &in.Reqs[i]
		switch r.Kind {
		case kindReach:
			bySource[r.S] = append(bySource[r.S], i)
		case kindLCR, kindRLC:
			k := key{r.S, r.T, r.Alpha}
			want, ok := memo[k]
			if !ok {
				if r.Kind == kindLCR {
					want = traversal.LabelConstrainedBFS(g, r.S, r.T, masks[r.Alpha])
				} else {
					want = traversal.ProductBFS(g, r.S, r.T, dfas[r.Alpha])
				}
				memo[k] = want
			}
			r.Want = want
		}
	}
	for s, idx := range bySource {
		set := traversal.ReachableFrom(g, s)
		for _, i := range idx {
			in.Reqs[i].Want = set.Test(int(in.Reqs[i].T))
		}
	}
	return nil
}

// genBatch builds the unlabeled 1M-vertex DAG, writes the warm-start
// artifacts (graph CSR snapshot and mapped BFL snapshot), and cuts
// half-positive, half-negative pairs into /v1/batch bodies.
func genBatch(dir string, seed int64) (*inputs, error) {
	g := gen.RandomDAG(gen.Config{N: batchN, M: batchM, Seed: seed})
	if err := writeFile(filepath.Join(dir, "graph.snap"), func(w *bufio.Writer) error {
		_, err := g.WriteSnapshot(w)
		return err
	}); err != nil {
		return nil, err
	}
	ix, err := reach.Build(reach.KindBFL, g, reach.Options{})
	if err != nil {
		return nil, err
	}
	if err := writeFile(filepath.Join(dir, "bfl.snap"), func(w *bufio.Writer) error {
		return reach.SaveIndexMapped(w, ix)
	}); err != nil {
		return nil, err
	}
	ix = nil
	n := g.N()
	rng := rand.New(rand.NewSource(seed + 1))
	per := batchBodies * batchPairs / batchSources
	topo, err := topoOrder(g)
	if err != nil {
		return nil, err
	}
	words := make([]uint64, n)
	var pairs []reach.Pair
	var wants []bool
	checked := false
	for len(pairs) < batchBodies*batchPairs {
		// Sources are uniform over the vertices that reach at least one
		// other vertex; 64 of them share one sweep.
		var src [64]graph.V
		for j := range src {
			src[j] = graph.V(rng.Intn(n))
		}
		reachWords(g, topo, src[:], words)
		if !checked {
			// Cross-check the sweep against traversal's BFS once per seed.
			set := traversal.ReachableFrom(g, src[0])
			for v := 0; v < n; v++ {
				if set.Test(v) != (words[v]&1 != 0) {
					return nil, fmt.Errorf("batch oracle: sweep and BFS disagree on %d->%d", src[0], v)
				}
			}
			checked = true
		}
		var reached [64][]graph.V
		for v, w := range words {
			for ; w != 0; w &= w - 1 {
				if j := bits.TrailingZeros64(w); graph.V(v) != src[j] {
					reached[j] = append(reached[j], graph.V(v))
				}
			}
		}
		for j, s := range src {
			// A source reaching (nearly) everything has no negatives to
			// draw; such sources do not occur at this density.
			if len(pairs) == batchBodies*batchPairs || len(reached[j]) == 0 || len(reached[j]) > n/2 {
				continue
			}
			bit := uint64(1) << j
			for k := 0; k < per; k++ {
				if k%2 == 0 {
					pairs = append(pairs, reach.Pair{S: s, T: reached[j][rng.Intn(len(reached[j]))]})
					wants = append(wants, true)
					continue
				}
				t := graph.V(rng.Intn(n))
				for t == s || words[t]&bit != 0 {
					t = graph.V(rng.Intn(n))
				}
				pairs = append(pairs, reach.Pair{S: s, T: t})
				wants = append(wants, false)
			}
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) {
		pairs[i], pairs[j] = pairs[j], pairs[i]
		wants[i], wants[j] = wants[j], wants[i]
	})
	in := &inputs{N: n}
	for b := 0; b < batchBodies; b++ {
		lo, hi := b*batchPairs, (b+1)*batchPairs
		in.Batches = append(in.Batches, pairs[lo:hi])
		in.BatchWant = append(in.BatchWant, wants[lo:hi])
	}
	return in, nil
}

// genReadWrite builds the unlabeled 200k-vertex DAG and an open-loop
// request list long enough for rwMaxSeconds at rate: 80% uniform reads,
// 20% 4-op writes from gen.UpdateScript(dagSafe=true).
func genReadWrite(dir string, seed int64, rate float64) (*inputs, error) {
	g, err := writeTextGraph(filepath.Join(dir, "graph.txt"), gen.RandomDAG(gen.Config{N: rwN, M: rwM, Seed: seed}))
	if err != nil {
		return nil, err
	}
	n := g.N()
	total := int(rate * rwMaxSeconds)
	wantOps := int(float64(total)*rwWriteShare*1.2)*rwOpsPerWrite + rwLedgerOps
	// Keep the first op per edge so no two writes touch the same edge.
	seen := make(map[graph.Edge]bool)
	var ops []reach.EdgeOp
	for _, u := range gen.UpdateScript(g, wantOps+wantOps/4, true, seed+1) {
		e := graph.Edge{From: u.Edge.From, To: u.Edge.To}
		if seen[e] {
			continue
		}
		seen[e] = true
		ops = append(ops, reach.EdgeOp{Remove: !u.Insert, From: e.From, To: e.To})
	}
	if len(ops) < wantOps {
		return nil, fmt.Errorf("update script yielded %d distinct-edge ops, need %d", len(ops), wantOps)
	}
	in := &inputs{N: n}
	for i := 0; i+rwOpsPerWrite <= len(ops); i += rwOpsPerWrite {
		in.Writes = append(in.Writes, ops[i:i+rwOpsPerWrite])
	}
	rng := rand.New(rand.NewSource(seed + 2))
	in.Reqs = make([]request, total)
	nw := 0
	for i := range in.Reqs {
		r := &in.Reqs[i]
		if rng.Float64() < rwWriteShare && nw < len(in.Writes) {
			r.Kind, r.Write = kindWrite, int32(nw)
			nw++
			continue
		}
		r.Kind = kindReach
		r.S = uint32(rng.Intn(n))
		for r.T = uint32(rng.Intn(n)); r.T == r.S; r.T = uint32(rng.Intn(n)) {
		}
	}
	// The ledger sample: the first reads, answered on the base graph and
	// on the base graph plus the first rwLedgerOps ops.
	mutated := applyOps(g, ops[:rwLedgerOps])
	for _, r := range in.Reqs {
		if len(in.Ledger) == rwLedgerPairs {
			break
		}
		if r.Kind != kindReach {
			continue
		}
		in.Ledger = append(in.Ledger, checkPair{S: r.S, T: r.T, Want: traversal.BFS(g, r.S, r.T)})
		in.LedgerOverlay = append(in.LedgerOverlay, traversal.BFS(mutated, r.S, r.T))
	}
	// Final-check sample: half the sources and targets are endpoints of
	// written edges, so the overlay decides many of the checked answers.
	for i := 0; i < rwCheckSources; i++ {
		if i%2 == 0 {
			in.CheckSrc = append(in.CheckSrc, uint32(rng.Intn(n)))
		} else {
			in.CheckSrc = append(in.CheckSrc, ops[rng.Intn(len(ops)/4)].From)
		}
	}
	for i := 0; i < rwCheckTargets; i++ {
		if i%2 == 0 {
			in.CheckDst = append(in.CheckDst, uint32(rng.Intn(n)))
		} else {
			in.CheckDst = append(in.CheckDst, ops[rng.Intn(len(ops)/4)].To)
		}
	}
	return in, nil
}

// topoOrder returns the vertices of the DAG g in topological order
// (Kahn's algorithm), or an error if g has a cycle.
func topoOrder(g *graph.Digraph) ([]graph.V, error) {
	n := g.N()
	indeg := make([]int32, n)
	for v := 0; v < n; v++ {
		for _, w := range g.Succ(graph.V(v)) {
			indeg[w]++
		}
	}
	order := make([]graph.V, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, graph.V(v))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, w := range g.Succ(order[i]) {
			if indeg[w]--; indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph has a cycle")
	}
	return order, nil
}

// reachWords sets bit j of words[v] exactly when src[j] reaches v in the
// DAG g, with one pass over the edges in topological order.
func reachWords(g *graph.Digraph, topo, src []graph.V, words []uint64) {
	clear(words)
	for j, s := range src {
		words[s] |= 1 << j
	}
	for _, u := range topo {
		if w := words[u]; w != 0 {
			for _, v := range g.Succ(u) {
				words[v] |= w
			}
		}
	}
}

// applyOps returns g with the ops applied. Each edge appears at most once
// in ops, so order does not matter.
func applyOps(g *graph.Digraph, ops []reach.EdgeOp) *graph.Digraph {
	removed := make(map[graph.Edge]bool)
	b := graph.NewBuilder(g.N())
	for _, op := range ops {
		if op.Remove {
			removed[graph.Edge{From: op.From, To: op.To}] = true
		} else {
			b.AddEdge(op.From, op.To)
		}
	}
	g.Edges(func(e graph.Edge) bool {
		if !removed[e] {
			b.AddEdge(e.From, e.To)
		}
		return true
	})
	return b.MustFreeze()
}
