package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	reach "repro"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/traversal"
)

// Workload settings fixed by the benchmark definition (BENCHMARK.json
// records the reasons).
const (
	conns  = 2 // client connections: the VM's core count
	setups = 3 // boots per run; setup_s and heap_mb are their medians
	// pointRate is point's open-loop Poisson rate, about a quarter of
	// what two closed-loop clients sustain on the reference 2-core VM.
	pointRate = 6000.0
	// rwRate caps read-write's two closed-loop clients. With 20% 4-op
	// writes it refills the default 4096-edge rebuild threshold within
	// one rebuild (5-6 s here), so at least three background rebuilds
	// finish in a 25 s run after rwWarmup; a higher rate lets each overlay
	// outgrow the last and the rebuilds lengthen.
	rwRate   = 900.0
	rwWarmup = 5 * time.Second
	// Fixed tail percentiles: the highest of p99/p95/p90 with at least
	// ten samples beyond it at the reference seed and 25 s runs.
	pointTail = 99
	batchTail = 95
	rwTail    = 99
	warmup    = time.Second
	// maxWindows is how many windows a phase's rates and latencies are
	// taken over (see latency and phase.rates).
	maxWindows = 10
)

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	seconds  int
	dataDir  string
	runDir   string
	tr       *tracer

	in  *inputs
	dir string
	tf  *traffic

	vals  map[string]float64
	notes []string
	errs  []string

	attempted, failed, wrong int

	// Set by the end-to-end phase for the ledger.
	served    *setupResult
	e2e       *e2eStats
	mutSample mutSample
}

func (b *bench) notef(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

func (b *bench) count(p *phase) {
	b.attempted += p.attempted
	b.failed += p.failed
	b.wrong += p.wrong
	if p.wrong > 0 {
		b.errorf("%d wrong answers", p.wrong)
	}
}

func (b *bench) run(ctx context.Context) error {
	in, dir, err := loadInputs(b.dataDir, b.workload, b.seed)
	if err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	b.in, b.dir = in, dir
	b.notef("inputs of seed %d generated in %.1fs (cached in %s)", b.seed, in.GenSeconds, dir)
	if b.tf, err = newTraffic(in); err != nil {
		return err
	}
	root := b.tr.begin("run", -1)
	if err := b.setups(ctx, root); err != nil {
		return err
	}
	defer closeDB(b.served)
	if err := b.endToEnd(ctx, root); err != nil {
		return err
	}
	if b.tr != nil {
		if err := b.ledger(ctx, root); err != nil {
			return err
		}
	}
	b.tr.end(root)
	return nil
}

func closeDB(sr *setupResult) {
	if sr != nil && sr.db != nil {
		sr.db.Close()
	}
}

// setups boots the DB `setups` times, keeps the last one for serving and
// reports the medians of setup time, heap added and each setup phase.
func (b *bench) setups(ctx context.Context, parent int) error {
	sp := b.tr.begin("setup", parent)
	defer b.tr.end(sp)
	var secs, heap, load, cond, idxLoad, build, lcr, rlc []float64
	for k := 0; k < setups; k++ {
		if b.served != nil {
			closeDB(b.served)
			b.served = nil
		}
		sr, err := setup(ctx, b.workload, b.dir, filepath.Join(b.runDir, fmt.Sprintf("wal-%d", k)))
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.served = sr
		secs = append(secs, sr.seconds)
		heap = append(heap, float64(sr.heapBytes)/1e6)
		load = append(load, sr.loadSeconds)
		cond = append(cond, spanSeconds(sr.spans, "scc/condense"))
		idxLoad = append(idxLoad, spanSeconds(sr.spans, "index/load"))
		build = append(build, spanSeconds(sr.spans, "index/build"))
		lcr = append(lcr, spanSeconds(sr.spans, "lcr/build"))
		rlc = append(rlc, spanSeconds(sr.spans, "rlc/build"))
	}
	b.vals["setup_s"] = median(secs)
	b.vals["heap_mb"] = median(heap)
	if b.workload == "batch" {
		b.vals["graph.snapshot_load_s"] = median(load)
	} else {
		b.vals["graph.read_s"] = median(load)
	}
	b.vals["scc.condense_s"] = median(cond)
	b.vals["persist.index_load_s"] = median(idxLoad)
	if b.workload != "batch" {
		b.vals["bfl.build_s"] = median(build)
	}
	b.vals["lcr.build_s"] = median(lcr)
	b.vals["rlc.build_s"] = median(rlc)
	return nil
}

// e2eStats carries what the end-to-end phase measured beyond the
// headline metrics, for the ledger.
type e2eStats struct {
	requests   int
	allocBytes uint64
	gcFrac     float64
	cacheHits  int64
	cacheMiss  int64
	evictions  int64
	mutBefore  obs.MutationSnapshot
	mutAfter   obs.MutationSnapshot
}

// endToEnd runs the workload's measured phases against the served stack
// at all cores and checks the answers.
func (b *bench) endToEnd(ctx context.Context, parent int) error {
	sp := b.tr.begin("end-to-end", parent)
	defer b.tr.end(sp)
	st, err := startStack(b.served.db)
	if err != nil {
		return err
	}
	c := newClient(st.base, conns)
	send := sender(b.tf, c, conns)
	err = b.measure(ctx, send, c)
	if err == nil && b.tr != nil {
		b.overhead(send, sp)
	}
	b.vals["server.rejected"] = float64(st.srv.Metrics().Rejected.Load())
	c.close()
	if serr := st.stop(); err == nil {
		err = serr
	}
	return err
}

func (b *bench) measure(ctx context.Context, send func(w, i int) outcome, c *client) error {
	T := time.Duration(b.seconds) * time.Second
	db := b.served.db
	e := &e2eStats{}
	b.e2e = e
	var rt runtimeSample
	cacheBefore, _ := db.CacheStats()
	switch b.workload {
	case "point":
		// Warm connections and the result cache on the far end of the
		// request list, then the open-loop phase at a fixed rate and the
		// closed-loop phase.
		b.count(closedLoop(conns, warmup, len(b.in.Reqs)/2, send))
		rt.start()
		n := int(pointRate * T.Seconds() / 2)
		open, err := openLoop(conns, poissonSchedule(n, pointRate, b.seed+100), 0, send)
		if err != nil {
			return err
		}
		closed := closedLoop(conns, T/2, n, send)
		rt.stop()
		b.count(open)
		b.count(closed)
		b.latency(open, pointTail, "open.p50_us", "open.tail_us")
		b.lateness(open)
		b.latency(closed, pointTail, "p50_us", "tail_us")
		b.vals["qps"], b.vals["pairs_per_s"] = closed.rates(maxWindows)
		e.requests = open.attempted + closed.attempted
	case "batch":
		b.count(closedLoop(conns, warmup, 0, send))
		rt.start()
		closed := closedLoop(conns, T, 0, send)
		rt.stop()
		b.count(closed)
		b.latency(closed, batchTail, "p50_us", "tail_us")
		b.vals["qps"], b.vals["pairs_per_s"] = closed.rates(maxWindows)
		e.requests = closed.attempted
	case "read-write":
		if T+rwWarmup > rwMaxSeconds*time.Second {
			return fmt.Errorf("read-write: requests are generated for at most %ds", rwMaxSeconds)
		}
		// The warm-up fills the overlay past the rebuild threshold, so the
		// measured phase runs with the rebuild cycle already turning.
		nw := int(rwRate * rwWarmup.Seconds())
		warm, err := pacedLoop(conns, poissonSchedule(nw, rwRate, b.seed+99), 0, send)
		if err != nil {
			return err
		}
		b.count(warm)
		snap, _ := db.MetricsSnapshot()
		e.mutBefore = *snap.Mutation
		n := int(rwRate * T.Seconds())
		poll := startMutPoller(db)
		rt.start()
		closed, err := pacedLoop(conns, poissonSchedule(n, rwRate, b.seed+100), nw, send)
		rt.stop()
		b.mutSample = poll.stop()
		if err != nil {
			return err
		}
		b.count(closed)
		b.lateness(closed)
		b.latency(closed, rwTail, "p50_us", "tail_us", kindReach)
		b.latency(closed, rwTail, "write_p50_us", "write_tail_us", kindWrite)
		b.vals["qps"], b.vals["pairs_per_s"] = closed.rates(maxWindows)
		e.requests = closed.attempted
		if err := db.Flush(ctx); err != nil {
			return fmt.Errorf("final flush: %w", err)
		}
		snap, _ = db.MetricsSnapshot()
		e.mutAfter = *snap.Mutation
		if err := b.checkReadWrite(c); err != nil {
			return err
		}
	}
	e.allocBytes, e.gcFrac = rt.allocBytes, rt.gcFrac()
	if cs, ok := db.CacheStats(); ok {
		e.cacheHits = cs.Hits - cacheBefore.Hits
		e.cacheMiss = cs.Misses - cacheBefore.Misses
		e.evictions = cs.Evictions - cacheBefore.Evictions
	}
	b.vals["failed_frac"] = float64(b.failed) / float64(max(b.attempted, 1))
	b.e2eLayers()
	b.notef("end-to-end: %d requests attempted, %d failed, %d wrong", b.attempted, b.failed, b.wrong)
	return nil
}

// latency reports the median and the workload's fixed tail percentile
// of the latencies of the given kinds under the two names. The phase is
// cut into up to maxWindows windows, each keeping at least minBeyond
// samples beyond the tail, and each figure is the median over windows, so
// one transient stall moves one window rather than the run.
func (b *bench) latency(p *phase, tail float64, p50Name, tailName string, kinds ...uint8) {
	n := len(p.latencies(kinds...))
	if n == 0 {
		b.errorf("no %s samples", p50Name)
		return
	}
	k := min(max(beyond(n, tail)/minBeyond, 1), maxWindows)
	var p50s, tails []float64
	for _, w := range p.windows(k, kinds...) {
		if len(w) > 0 {
			p50s = append(p50s, us(percentile(w, 50)))
			tails = append(tails, us(percentile(w, tail)))
		}
	}
	b.vals[p50Name] = median(p50s)
	b.vals[tailName] = median(tails)
	if tailName == "tail_us" {
		b.vals["tail_samples"] = float64(beyond(n, tail))
	}
	b.notef("%s is p%g of %d samples (%d beyond), median of %d windows", tailName, tail, n, beyond(n, tail), k)
	if rule := tailPercentile(n); rule != tail {
		b.notef("%s: at %d samples the tail rule picks p%g, not the fixed p%g", tailName, n, rule, tail)
	}
}

func (b *bench) lateness(p *phase) {
	if len(p.late) > 0 {
		b.vals["gen.late_p99_us"] = us(percentile(p.late, 99))
		b.notef("generator lateness p50 %.1fus p90 %.1fus over %d paced sends", us(percentile(p.late, 50)), us(percentile(p.late, 90)), len(p.late))
	}
}

// checkReadWrite verifies, after the final Flush, a sample of reads
// against BFS over the base graph plus every acknowledged write.
func (b *bench) checkReadWrite(c *client) error {
	var ops []reach.EdgeOp
	for i := range b.in.Writes {
		if b.tf.acked[i].Load() {
			ops = append(ops, b.in.Writes[i]...)
		}
	}
	base, err := readTextGraph(filepath.Join(b.dir, "graph.txt"))
	if err != nil {
		return err
	}
	final := applyOps(base, ops)
	var st struct{ checked, wrong, failed int }
	buf := new(bytes.Buffer)
	for _, s := range b.in.CheckSrc {
		set := traversal.ReachableFrom(final, graph.V(s))
		for _, t := range b.in.CheckDst {
			if s == t {
				continue
			}
			code, err := c.do("GET", fmt.Sprintf("/v1/reach?s=%d&t=%d", s, t), nil, buf)
			st.checked++
			switch {
			case err != nil || code != 200:
				st.failed++
			case (string(buf.Bytes()) == string(reachTrue)) != set.Test(int(t)):
				st.wrong++
			}
		}
	}
	b.attempted += st.checked
	b.failed += st.failed
	b.wrong += st.wrong
	if st.wrong > 0 {
		b.errorf("read-write final check: %d of %d answers wrong", st.wrong, st.checked)
	}
	b.vals["disk_bytes_per_op"] = 0
	if fi, err := os.Stat(filepath.Join(b.runDir, fmt.Sprintf("wal-%d", setups-1))); err == nil && len(ops) > 0 {
		b.vals["disk_bytes_per_op"] = float64(fi.Size()) / float64(len(ops))
	}
	b.notef("read-write: %d acknowledged ops; final check %d pairs, %d wrong", len(ops), st.checked, st.wrong)
	return nil
}

// runtimeSample measures allocation and GC CPU over a phase.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	samples         []metrics.Sample
}

func (r *runtimeSample) read() (alloc uint64, gc, total float64) {
	if r.samples == nil {
		r.samples = []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/cpu/classes/total:cpu-seconds"},
		}
	}
	metrics.Read(r.samples)
	return r.samples[0].Value.Uint64(), r.samples[1].Value.Float64(), r.samples[2].Value.Float64()
}

func (r *runtimeSample) start() {
	r.allocBytes, r.gcCPU, r.totalCPU = r.read()
}

func (r *runtimeSample) stop() {
	a, g, t := r.read()
	r.allocBytes, r.gcCPU, r.totalCPU = a-r.allocBytes, g-r.gcCPU, t-r.totalCPU
}

func (r *runtimeSample) gcFrac() float64 {
	if r.totalCPU <= 0 {
		return 0
	}
	return r.gcCPU / r.totalCPU
}

// mutSample summarizes the mutation engine over the read-write phase.
type mutSample struct {
	overlayMean float64
	rebuildSecs []float64
}

// mutPoller samples the overlay size and rebuild intervals every
// millisecond while read-write runs.
type mutPoller struct {
	db   *reach.DB
	quit chan struct{}
	done chan mutSample
}

func startMutPoller(db *reach.DB) *mutPoller {
	p := &mutPoller{db: db, quit: make(chan struct{}), done: make(chan mutSample, 1)}
	go p.loop()
	return p
}

func (p *mutPoller) loop() {
	var s mutSample
	var sum float64
	var n int
	var since time.Time
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-p.quit:
			if n > 0 {
				s.overlayMean = sum / float64(n)
			}
			p.done <- s
			return
		case <-tick.C:
		}
		ms, _ := p.db.MutationStats()
		sum += float64(ms.OverlayAdded + ms.OverlayRemoved)
		n++
		switch {
		case ms.Rebuilding && since.IsZero():
			since = time.Now()
		case !ms.Rebuilding && !since.IsZero():
			s.rebuildSecs = append(s.rebuildSecs, time.Since(since).Seconds())
			since = time.Time{}
		}
	}
}

// stop ends sampling and waits for the sampler to exit.
func (p *mutPoller) stop() mutSample {
	close(p.quit)
	return <-p.done
}
