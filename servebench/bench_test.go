package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	reach "repro"
	"repro/internal/graph"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {20, 90},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
	// Whenever any candidate qualifies, the pick leaves at least
	// minBeyond samples beyond it and no higher candidate does.
	for n := 100; n <= 3000; n++ {
		p := tailPercentile(n)
		if beyond(n, p) < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond", n, p, beyond(n, p))
		}
		for _, q := range tailCandidates {
			if q > p && beyond(n, q) >= minBeyond {
				t.Fatalf("n=%d: picked p%g but p%g qualifies", n, p, q)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 100; i >= 1; i-- {
		xs = append(xs, time.Duration(i))
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %d, want 99", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %d, want 50", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestOpenLoopTimesFromDue checks that a request delayed by an earlier
// slow one is charged the wait: its latency counts from its due time, not
// from when a connection was free to send it.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 30 * time.Millisecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	var sends atomic.Int32
	p, err := openLoop(1, due, 0, func(_, i int) outcome {
		if sends.Add(1) == 1 {
			time.Sleep(stall)
		}
		return outcome{kind: kindReach, pairs: 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted != 3 || len(p.samples) != 3 {
		t.Fatalf("attempted %d, samples %d; want 3", p.attempted, len(p.samples))
	}
	for i, s := range p.samples {
		// Request i waited for the stall that began at due[0].
		if floor := stall - due[i]; s.lat < floor {
			t.Errorf("request %d latency %v, want at least %v (timed from its due time)", i, s.lat, floor)
		}
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	p := closedLoop(2, 20*time.Millisecond, 0, func(_, i int) outcome {
		return outcome{kind: kindReach, failed: i%2 == 0, pairs: 1}
	})
	if p.attempted == 0 || p.failed == 0 || len(p.samples) != p.attempted-p.failed {
		t.Fatalf("attempted %d failed %d samples %d", p.attempted, p.failed, len(p.samples))
	}
}

// TestOracleFig1 checks the point oracle against the answers the paper
// states for its Figure 1 and against the DB on every pair.
func TestOracleFig1(t *testing.T) {
	g := reach.Fig1Labeled()
	alphas := []string{"(friendOf|follows)*", "(worksFor)*", "(worksFor|friendOf)*", "(worksFor.friendOf)*", "(follows.worksFor)*"}
	in := &inputs{Alphas: alphas}
	for s := 0; s < g.N(); s++ {
		for u := 0; u < g.N(); u++ {
			if s == u {
				continue
			}
			in.Reqs = append(in.Reqs, request{Kind: kindReach, S: uint32(s), T: uint32(u)})
			for a := range alphas {
				kind := kindLCR
				if a >= 3 {
					kind = kindRLC
				}
				in.Reqs = append(in.Reqs, request{Kind: kind, Alpha: uint8(a), S: uint32(s), T: uint32(u)})
			}
		}
	}
	if err := pointOracle(g, in); err != nil {
		t.Fatal(err)
	}
	v := func(name string) uint32 {
		id, ok := g.VertexByName(name)
		if !ok {
			t.Fatalf("no vertex %s", name)
		}
		return id
	}
	want := func(kind uint8, alpha int, s, u string) bool {
		for _, r := range in.Reqs {
			if r.Kind == kind && r.S == v(s) && r.T == v(u) && (kind == kindReach || int(r.Alpha) == alpha) {
				return r.Want
			}
		}
		t.Fatalf("no request %s->%s", s, u)
		return false
	}
	// Published answers (PAPER.md §2.1, §2.2, §4.2).
	if !want(kindReach, 0, "A", "G") {
		t.Error("Qr(A,G) should be true")
	}
	if want(kindLCR, 0, "A", "G") {
		t.Error("Qr(A,G,(friendOf|follows)*) should be false")
	}
	if !want(kindRLC, 3, "L", "B") {
		t.Error("Qr(L,B,(worksFor.friendOf)*) should be true")
	}
	db, err := reach.NewDB(g, reach.DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range in.Reqs {
		var got bool
		if r.Kind == kindReach {
			got, err = db.Reach(r.S, r.T)
		} else {
			got, err = db.Query(r.S, r.T, alphas[r.Alpha])
		}
		if err != nil || got != r.Want {
			t.Errorf("kind %d α=%d %d->%d: DB %v (err %v), oracle %v", r.Kind, r.Alpha, r.S, r.T, got, err, r.Want)
		}
	}
}

func TestApplyOps(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}})
	h := applyOps(g, []reach.EdgeOp{{Remove: true, From: 1, To: 2}, {From: 2, To: 3}, {From: 0, To: 3}})
	if h.HasEdge(1, 2) || !h.HasEdge(0, 1) || !h.HasEdge(2, 3) || !h.HasEdge(0, 3) || h.M() != 3 {
		t.Fatalf("applyOps gave %v", h.EdgeList())
	}
}

// TestGeneratorDeterminism checks that a seed fixes the graph, the
// requests and the oracle answers.
func TestGeneratorDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two 200k-vertex graphs")
	}
	gens := map[string]func(dir string, seed int64) (*inputs, error){
		"point":      genPoint,
		"read-write": func(dir string, seed int64) (*inputs, error) { return genReadWrite(dir, seed, 200) },
	}
	for name, genFn := range gens {
		t.Run(name, func(t *testing.T) {
			run := func(seed int64) (*inputs, []byte) {
				dir := t.TempDir()
				in, err := genFn(dir, seed)
				if err != nil {
					t.Fatal(err)
				}
				graphText, err := os.ReadFile(filepath.Join(dir, "graph.txt"))
				if err != nil {
					t.Fatal(err)
				}
				return in, graphText
			}
			a, ga := run(7)
			b, gb := run(7)
			if !reflect.DeepEqual(a, b) || string(ga) != string(gb) {
				t.Fatal("same seed produced different inputs")
			}
			c, gc := run(8)
			if reflect.DeepEqual(a.Reqs, c.Reqs) || string(ga) == string(gc) {
				t.Fatal("different seeds produced the same inputs")
			}
		})
	}
}

// TestBenchmarkJSON keeps the metric tables in step with BENCHMARK.json.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloads, names)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics, BENCHMARK.json has %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: %s/%s, BENCHMARK.json has %s/%s", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}
