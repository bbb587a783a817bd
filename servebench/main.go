// Command servebench is the repository's serving benchmark. It boots the
// real serving stack in-process — reach.NewDBCtx behind internal/server
// on a loopback TCP listener — drives one of three seeded workloads
// (point, batch, read-write) over at most two keep-alive connections,
// checks every answer against an exact oracle, and prints its metrics.
// With -trace 1 it additionally replays the same inputs layer by layer
// (index probe, DB entry point, handler, loopback HTTP, batch, mutation
// and setup paths) on one goroutine and prints the per-layer ledger.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash servebench/run.sh --workload point --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See servebench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef declares a metric the benchmark reports; the tables below
// mirror BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are reported by every run with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"qps", "1/s"},
	{"pairs_per_s", "1/s"},
	{"p50_us", "us"},
}

// perLayer are reported by every run with -trace 1. A layer a workload
// does not exercise reports 0 (see README.md for which apply where).
var perLayer = []metricDef{
	{"bfl.probe_ns", "ns"},
	{"bfl.probe_pos_ns", "ns"},
	{"bfl.probe_neg_ns", "ns"},
	{"bfl.build_s", "s"},
	{"bfl.bytes", "bytes"},
	{"lcr.build_s", "s"},
	{"rlc.build_s", "s"},
	{"lcr.probe_ns", "ns"},
	{"rlc.probe_ns", "ns"},
	{"regexpath.parse_ns", "ns"},
	{"graph.read_s", "s"},
	{"graph.snapshot_load_s", "s"},
	{"scc.condense_s", "s"},
	{"persist.index_load_s", "s"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.evictions", "count"},
	{"db.reach_ns", "ns"},
	{"db.reach_self_ns", "ns"},
	{"db.query_lcr_ns", "ns"},
	{"db.query_rlc_ns", "ns"},
	{"db.allocs_per_op", "count"},
	{"db.batch_ns_per_pair", "ns"},
	{"kernel.ns_per_pair", "ns"},
	{"bfl.batch_ns_per_pair", "ns"},
	{"db.reach_overlay_ns", "ns"},
	{"mutate.overlay_mean", "edges"},
	{"mutate.rebuilds", "count"},
	{"mutate.rebuild_s", "s"},
	{"mutate.commit_p50_us", "us"},
	{"mutate.commit_p99_us", "us"},
	{"mutate.group_ops", "count"},
	{"mutate.fsyncs_per_op", "count"},
	{"mutate.wal_bytes_per_op", "bytes"},
	{"server.handler_us", "us"},
	{"server.self_us", "us"},
	{"server.allocs_per_req", "count"},
	{"server.batch_self_ns_per_pair", "ns"},
	{"server.rejected", "count"},
	{"http.roundtrip_us", "us"},
	{"http.self_us", "us"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_bytes_per_req", "bytes"},
	{"open.p50_us", "us"},
	{"open.tail_us", "us"},
	{"gen.late_p99_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"tail_us", "us"},
	{"write_p50_us", "us"},
	{"write_tail_us", "us"},
	{"disk_bytes_per_op", "bytes"},
	{"failed_frac", "ratio"},
	{"tail_samples", "count"},
}

var workloads = []string{"point", "batch", "read-write"}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "workload seed: same seed, same graph, requests and answers")
		seconds  = flag.Int("seconds", 10, "measured seconds of end-to-end load")
		trace    = flag.Int("trace", 0, "1 replays the layers and prints the per-layer metrics instead")
		dataDir  = flag.String("dir", ".bench_build/servebench-data", "directory for cached inputs and run files")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *dataDir); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, dataDir string) error {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return fmt.Errorf("unknown -workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	rd, err := runDir(dataDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(rd)
	b := &bench{workload: workload, seed: seed, seconds: seconds, dataDir: dataDir, runDir: rd, vals: map[string]float64{}}
	if traced {
		b.tr = newTracer()
	}
	if err := b.run(context.Background()); err != nil {
		return err
	}
	if b.tr != nil {
		if err := b.tr.write(dataDir, workload); err != nil {
			return err
		}
	}
	return b.report(os.Stdout, traced)
}

// report prints every value the run measured, one per line, then the
// result JSON as the last line.
func (b *bench) report(w *os.File, traced bool) error {
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	var names []string
	for name := range b.vals {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# servebench workload=%s seed=%d seconds=%d trace=%v\n", b.workload, b.seed, b.seconds, traced)
	for _, name := range names {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", name, b.vals[name], units[name])
	}
	for _, note := range b.notes {
		fmt.Fprintf(w, "# %s\n", note)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct:   b.wrong == 0 && len(b.errs) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: b.vals[d.name], Unit: d.unit}
	}
	for _, e := range b.errs {
		fmt.Fprintf(w, "# check failed: %s\n", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
