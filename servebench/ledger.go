package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	reach "repro"
	"repro/internal/labelset"
	"repro/internal/regexpath"
)

// Ledger replay sizes.
const (
	ledgerRounds     = 5 // replay rounds; each layer reports its median round
	ledgerPlain      = 4096
	ledgerQueries    = 1024
	ledgerParseReps  = 2000
	ledgerBatchRound = 2 // /v1/batch bodies per batch-path pass on batch
	burstRounds      = 3 // untraced/traced headline burst pairs
	burstLen         = 2 * time.Second
)

// layers collects one mean per round for each layer.
type layers map[string][]float64

func (l layers) add(name string, v float64) { l[name] = append(l[name], v) }

// med is the layer's median round.
func (l layers) med(name string) float64 { return median(append([]float64(nil), l[name]...)) }

// pass runs fn, which performs n operations of one layer, as one span of
// the traced run and returns the mean nanoseconds per operation.
func (b *bench) pass(name string, parent, n int, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	b.tr.record(name, parent, start, end, n)
	return float64(end.Sub(start).Nanoseconds()) / float64(n)
}

// allocsPer counts heap allocations per operation of fn (n operations).
func allocsPer(n int, fn func()) float64 {
	var a, z runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&z)
	return float64(z.Mallocs-a.Mallocs) / float64(n)
}

// ledger replays the workload's inputs layer by layer on one goroutine
// (GOMAXPROCS=1) and reports the per-layer metrics.
func (b *bench) ledger(ctx context.Context, parent int) error {
	sp := b.tr.begin("ledger", parent)
	defer b.tr.end(sp)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var err error
	switch b.workload {
	case "point":
		err = b.ledgerPoint(ctx, sp)
	case "batch":
		err = b.ledgerBatch(ctx, sp)
	case "read-write":
		err = b.ledgerReadWrite(ctx, sp)
	}
	return err
}

// e2eLayers reports what the end-to-end phase observed about single
// layers: cache, admission, runtime and mutation-engine counters.
func (b *bench) e2eLayers() {
	e := b.e2e
	if lookups := e.cacheHits + e.cacheMiss; lookups > 0 {
		b.vals["qcache.hit_ratio"] = float64(e.cacheHits) / float64(lookups)
		b.vals["qcache.evictions"] = float64(e.evictions)
	}
	b.vals["runtime.gc_cpu_frac"] = e.gcFrac
	b.vals["runtime.alloc_bytes_per_req"] = float64(e.allocBytes) / float64(max(e.requests, 1))
	if b.workload == "read-write" {
		before, after := e.mutBefore, e.mutAfter
		ops := float64(after.Applied - before.Applied)
		if appends := after.WALAppends - before.WALAppends; appends > 0 {
			b.vals["mutate.group_ops"] = ops / float64(appends)
		}
		if ops > 0 {
			b.vals["mutate.fsyncs_per_op"] = float64(after.WALFsyncs-before.WALFsyncs) / ops
			b.vals["mutate.wal_bytes_per_op"] = float64(after.WALBytes-before.WALBytes) / ops
		}
		b.vals["mutate.rebuilds"] = float64(after.Rebuilds - before.Rebuilds)
		b.vals["mutate.overlay_mean"] = b.mutSample.overlayMean
		if rs := b.mutSample.rebuildSecs; len(rs) > 0 {
			var sum float64
			for _, s := range rs {
				sum += s
			}
			b.vals["mutate.rebuild_s"] = sum / float64(len(rs))
		}
	}
}

// overhead runs alternating untraced and traced closed-loop bursts of the
// workload's headline traffic on the served stack and reports how much
// throughput the traced run's per-request spans cost.
func (b *bench) overhead(send func(w, i int) outcome, parent int) {
	slots := b.headlineSlots()
	at := func(i int) int { return slots[i%len(slots)] }
	plain := func(w, i int) outcome { return send(w, at(i)) }
	var untraced, traced []float64
	for r := 0; r < burstRounds; r++ {
		p := closedLoop(conns, burstLen, r*100_000, plain)
		b.count(p)
		rate, _ := p.rates(maxWindows)
		untraced = append(untraced, rate)
		burst := b.tr.begin("burst.traced", parent)
		p = closedLoop(conns, burstLen, r*100_000+50_000, func(w, i int) outcome {
			t0 := time.Now()
			o := send(w, at(i))
			b.tr.record("http.request", burst, t0, time.Now(), 1)
			return o
		})
		b.tr.end(burst)
		b.count(p)
		rate, _ = p.rates(maxWindows)
		traced = append(traced, rate)
	}
	b.vals["trace.overhead_frac"] = median(untraced)/median(traced) - 1
}

// headlineSlots lists the request slots of the headline throughput
// traffic: every slot, except that read-write bursts only read (writes
// are sent once each, in the measured phase).
func (b *bench) headlineSlots() []int {
	var slots []int
	for i := 0; i < b.tf.units(); i++ {
		if b.in.Workload != "read-write" || b.in.Reqs[i].Kind == kindReach {
			slots = append(slots, i)
		}
	}
	return slots
}

// recorder is a minimal http.ResponseWriter for replaying the handler
// in-process.
type recorder struct {
	h    http.Header
	code int
	body []byte
}

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.body = append(r.body, p...)
	return len(p), nil
}

func (r *recorder) WriteHeader(code int) { r.code = code }

// handlerCalls prepares fresh requests and response writers for one
// in-process handler pass (outside the timed region: a request's form is
// parsed in place, so requests cannot be reused).
func handlerCalls(method string, paths []string, bodies [][]byte) ([]*http.Request, []*recorder, error) {
	n := len(paths)
	if bodies != nil {
		n = len(bodies)
	}
	reqs := make([]*http.Request, n)
	recs := make([]*recorder, n)
	for i := range reqs {
		var err error
		if bodies != nil {
			reqs[i], err = http.NewRequest(method, paths[0], bytes.NewReader(bodies[i]))
		} else {
			reqs[i], err = http.NewRequest(method, paths[i], nil)
		}
		if err != nil {
			return nil, nil, err
		}
		recs[i] = &recorder{h: make(http.Header, 1)}
	}
	return reqs, recs, nil
}

// pointQuery is a constrained query prepared for the index probes.
type pointQuery struct {
	s, t    reach.V
	alpha   string
	allowed labelset.Set
	seq     []reach.Label
	want    bool
}

func (b *bench) ledgerPoint(ctx context.Context, parent int) error {
	g := b.served.g
	// The replay DB has the served configuration minus the result cache,
	// so every layer below it is exercised on every call.
	ldb, err := reach.NewDBCtx(ctx, g, reach.DBConfig{Metrics: true})
	if err != nil {
		return err
	}
	opt := reach.Options{Prepared: ldb.Prepared()}
	ix, err := reach.BuildCtx(ctx, reach.KindBFL, g, opt)
	if err != nil {
		return err
	}
	lcrIx, err := reach.BuildLCRCtx(ctx, reach.LCRP2H, g, opt)
	if err != nil {
		return err
	}
	rlcIx, err := reach.BuildRLCCtx(ctx, g, opt)
	if err != nil {
		return err
	}
	b.vals["bfl.bytes"] = float64(ix.Stats().Bytes)
	pairs, wants, paths := b.plainSample(ledgerPlain)
	cls := make([]regexpath.Classification, len(b.in.Alphas))
	for i, a := range b.in.Alphas {
		ast, err := regexpath.Parse(a, regexpath.GraphResolver(g))
		if err != nil {
			return err
		}
		cls[i] = regexpath.Classify(ast)
	}
	var lcrQs, rlcQs []pointQuery
	for _, r := range b.in.Reqs {
		q := pointQuery{s: r.S, t: r.T, alpha: b.in.Alphas[r.Alpha], allowed: cls[r.Alpha].Allowed,
			seq: cls[r.Alpha].Sequence, want: r.Want}
		switch {
		case r.Kind == kindLCR && len(lcrQs) < ledgerQueries:
			lcrQs = append(lcrQs, q)
		case r.Kind == kindRLC && len(rlcQs) < ledgerQueries:
			rlcQs = append(rlcQs, q)
		}
	}
	st, err := startStack(ldb)
	if err != nil {
		return err
	}
	defer st.stop()
	c := newClient(st.base, 1)
	defer c.close()
	h := st.srv.Handler()
	L := layers{}
	var wrong int
	for r := 0; r < ledgerRounds; r++ {
		round := b.tr.begin("ledger.round", parent)
		b.probeLayers(ctx, L, round, ix, ldb, pairs, wants, &wrong)
		reqs, recs, err := handlerCalls("GET", paths, nil)
		if err != nil {
			return err
		}
		L.add("server.handler", b.pass("server.handler", round, len(reqs), func() {
			for i, req := range reqs {
				h.ServeHTTP(recs[i], req)
			}
		}))
		wrong += checkRecorded(recs, wants)
		L.add("http.roundtrip", b.pass("http.roundtrip", round, len(paths), func() {
			wrong += roundTrips(c, paths, wants)
		}))
		L.add("lcr.probe", b.pass("lcr.probe", round, len(lcrQs), func() {
			for _, q := range lcrQs {
				if lcrIx.ReachLC(q.s, q.t, q.allowed) != q.want {
					wrong++
				}
			}
		}))
		L.add("rlc.probe", b.pass("rlc.probe", round, len(rlcQs), func() {
			for _, q := range rlcQs {
				if rlcIx.ReachRLC(q.s, q.t, q.seq) != q.want {
					wrong++
				}
			}
		}))
		L.add("db.query_lcr", b.pass("db.query_lcr", round, len(lcrQs), func() {
			wrong += dbQueries(ctx, ldb, lcrQs)
		}))
		L.add("db.query_rlc", b.pass("db.query_rlc", round, len(rlcQs), func() {
			wrong += dbQueries(ctx, ldb, rlcQs)
		}))
		L.add("regexpath.parse", b.pass("regexpath.parse", round, ledgerParseReps, func() {
			for k := 0; k < ledgerParseReps; k++ {
				ast, err := regexpath.Parse(b.in.Alphas[k%len(b.in.Alphas)], regexpath.GraphResolver(g))
				if err != nil || regexpath.Classify(ast).Class == regexpath.ClassGeneral {
					wrong++
				}
			}
		}))
		if err := b.batchLayers(ctx, L, round, ix, ldb, h, c, chunk(pairs, wants, batchPairs), nil, &wrong); err != nil {
			return err
		}
		b.tr.end(round)
	}
	b.vals["db.allocs_per_op"] = allocsPer(len(pairs), func() {
		for _, p := range pairs {
			ldb.ReachCtx(ctx, p.S, p.T)
		}
	})
	reqs, recs, err := handlerCalls("GET", paths, nil)
	if err != nil {
		return err
	}
	b.vals["server.allocs_per_req"] = allocsPer(len(reqs), func() {
		for i, req := range reqs {
			h.ServeHTTP(recs[i], req)
		}
	})
	b.vals["lcr.probe_ns"] = L.med("lcr.probe")
	b.vals["rlc.probe_ns"] = L.med("rlc.probe")
	b.vals["db.query_lcr_ns"] = L.med("db.query_lcr")
	b.vals["db.query_rlc_ns"] = L.med("db.query_rlc")
	b.vals["regexpath.parse_ns"] = L.med("regexpath.parse")
	b.stackLayers(L, "db.reach")
	b.batchVals(L)
	return b.replayWrong(wrong)
}

func (b *bench) replayWrong(wrong int) error {
	if wrong > 0 {
		b.wrong += wrong
		b.errorf("layer replay: %d wrong answers", wrong)
	}
	return nil
}

// stackLayers turns the per-layer medians of the point-query stack into
// the ledger's absolute and self times; dbLayer names the DB entry layer
// the handler calls.
func (b *bench) stackLayers(L layers, dbLayer string) {
	probe, dbNs := L.med("bfl.probe"), L.med(dbLayer)
	handler, rt := L.med("server.handler"), L.med("http.roundtrip")
	b.vals["bfl.probe_ns"] = probe
	b.vals["bfl.probe_pos_ns"] = L.med("bfl.probe_pos")
	b.vals["bfl.probe_neg_ns"] = L.med("bfl.probe_neg")
	b.vals["db.reach_ns"] = L.med("db.reach")
	b.vals["db.reach_self_ns"] = L.med("db.reach") - probe
	b.vals["server.handler_us"] = handler / 1e3
	b.vals["server.self_us"] = (handler - dbNs) / 1e3
	b.vals["http.roundtrip_us"] = rt / 1e3
	b.vals["http.self_us"] = (rt - handler) / 1e3
}

// plainSample returns up to n plain reach requests of the workload with
// their answers and request paths.
func (b *bench) plainSample(n int) ([]reach.Pair, []bool, []string) {
	var pairs []reach.Pair
	var wants []bool
	var paths []string
	for i, r := range b.in.Reqs {
		if len(pairs) == n {
			break
		}
		if r.Kind == kindReach {
			pairs = append(pairs, reach.Pair{S: r.S, T: r.T})
			wants = append(wants, r.Want)
			paths = append(paths, b.tf.paths[i])
		}
	}
	return pairs, wants, paths
}

// probeLayers times the raw index probe (all, positive and negative
// pairs) and the DB entry point on the same pairs.
func (b *bench) probeLayers(ctx context.Context, L layers, round int, ix reach.Index, db *reach.DB, pairs []reach.Pair, wants []bool, wrong *int) {
	var pos, neg []reach.Pair
	for i, p := range pairs {
		if wants[i] {
			pos = append(pos, p)
		} else {
			neg = append(neg, p)
		}
	}
	L.add("bfl.probe", b.pass("bfl.probe", round, len(pairs), func() {
		for i, p := range pairs {
			if ix.Reach(p.S, p.T) != wants[i] {
				*wrong++
			}
		}
	}))
	for _, part := range []struct {
		name string
		ps   []reach.Pair
	}{{"bfl.probe_pos", pos}, {"bfl.probe_neg", neg}} {
		if len(part.ps) == 0 {
			continue
		}
		ps := part.ps
		L.add(part.name, b.pass(part.name, round, len(ps), func() {
			for _, p := range ps {
				ix.Reach(p.S, p.T)
			}
		}))
	}
	L.add("db.reach", b.pass("db.reach", round, len(pairs), func() {
		*wrong += dbReaches(ctx, db, pairs, wants)
	}))
}

func dbReaches(ctx context.Context, db *reach.DB, pairs []reach.Pair, wants []bool) (wrong int) {
	for i, p := range pairs {
		if got, err := db.ReachCtx(ctx, p.S, p.T); err != nil || got != wants[i] {
			wrong++
		}
	}
	return wrong
}

func dbQueries(ctx context.Context, db *reach.DB, qs []pointQuery) (wrong int) {
	for _, q := range qs {
		if got, err := db.QueryCtx(ctx, q.s, q.t, q.alpha); err != nil || got != q.want {
			wrong++
		}
	}
	return wrong
}

func checkRecorded(recs []*recorder, wants []bool) (wrong int) {
	for i, rec := range recs {
		want := reachFalse
		if wants[i] {
			want = reachTrue
		}
		if rec.code != http.StatusOK || !bytes.Equal(rec.body, want) {
			wrong++
		}
	}
	return wrong
}

func roundTrips(c *client, paths []string, wants []bool) (wrong int) {
	var buf bytes.Buffer
	for i, p := range paths {
		code, err := c.do("GET", p, nil, &buf)
		want := reachFalse
		if wants[i] {
			want = reachTrue
		}
		if err != nil || code != http.StatusOK || !bytes.Equal(buf.Bytes(), want) {
			wrong++
		}
	}
	return wrong
}

// batchChunk is one /v1/batch body's worth of pairs.
type batchChunk struct {
	pairs []reach.Pair
	wants []bool
	body  []byte
}

func chunk(pairs []reach.Pair, wants []bool, size int) []batchChunk {
	var out []batchChunk
	for lo := 0; lo < len(pairs); lo += size {
		hi := min(lo+size, len(pairs))
		out = append(out, batchChunk{pairs: pairs[lo:hi], wants: wants[lo:hi], body: batchBody(pairs[lo:hi])})
	}
	return out
}

func batchBody(pairs []reach.Pair) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"pairs":[`)
	for i, p := range pairs {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(`{"s":` + strconv.Itoa(int(p.S)) + `,"t":` + strconv.Itoa(int(p.T)) + `}`)
	}
	buf.WriteString(`]}`)
	return buf.Bytes()
}

// batchLayers times the batch path per pair: the index-free kernel, the
// index-backed batch, the DB entry point, and the /v1/batch handler and
// round trip. The kernel and ix answer over the served base graph;
// dbWants, when non-nil, are the answers expected from db instead of the
// chunks' base-graph answers (they differ under a mutation overlay).
func (b *bench) batchLayers(ctx context.Context, L layers, round int, ix reach.Index, db *reach.DB, h http.Handler, c *client, chunks []batchChunk, dbWants [][]bool, wrong *int) error {
	npairs := 0
	for _, ch := range chunks {
		npairs += len(ch.pairs)
	}
	check := func(got []bool, err error, want []bool) {
		if err != nil || len(got) != len(want) {
			*wrong++
			return
		}
		for i := range got {
			if got[i] != want[i] {
				*wrong++
			}
		}
	}
	dbWant := func(k int) []bool {
		if dbWants != nil {
			return dbWants[k]
		}
		return chunks[k].wants
	}
	base := b.served.g
	L.add("kernel.batch", b.pass("kernel.batch", round, npairs, func() {
		for _, ch := range chunks {
			out, err := reach.BatchReachCtx(ctx, nil, base, ch.pairs, 1)
			check(out, err, ch.wants)
		}
	}))
	L.add("bfl.batch", b.pass("bfl.batch", round, npairs, func() {
		for _, ch := range chunks {
			out, err := reach.BatchReachCtx(ctx, ix, base, ch.pairs, 1)
			check(out, err, ch.wants)
		}
	}))
	L.add("db.batch", b.pass("db.batch", round, npairs, func() {
		for k, ch := range chunks {
			out, err := db.BatchReachCtx(ctx, ch.pairs)
			check(out, err, dbWant(k))
		}
	}))
	bodies := make([][]byte, len(chunks))
	for k, ch := range chunks {
		bodies[k] = ch.body
	}
	reqs, recs, err := handlerCalls("POST", []string{"/v1/batch"}, bodies)
	if err != nil {
		return err
	}
	L.add("server.batch", b.pass("server.batch", round, npairs, func() {
		for i, req := range reqs {
			h.ServeHTTP(recs[i], req)
		}
	}))
	var resp struct {
		Results []bool `json:"results"`
	}
	for k, rec := range recs {
		resp.Results = nil
		err := json.Unmarshal(rec.body, &resp)
		check(resp.Results, err, dbWant(k))
	}
	L.add("http.batch", b.pass("http.batch", round, npairs, func() {
		var buf bytes.Buffer
		for k, body := range bodies {
			code, err := c.do("POST", "/v1/batch", body, &buf)
			if err != nil || code != http.StatusOK {
				*wrong++
				continue
			}
			resp.Results = nil
			err = json.Unmarshal(buf.Bytes(), &resp)
			check(resp.Results, err, dbWant(k))
		}
	}))
	return nil
}

// batchVals reports the batch path's per-pair ledger.
func (b *bench) batchVals(L layers) {
	b.vals["kernel.ns_per_pair"] = L.med("kernel.batch")
	b.vals["bfl.batch_ns_per_pair"] = L.med("bfl.batch")
	b.vals["db.batch_ns_per_pair"] = L.med("db.batch")
	b.vals["server.batch_self_ns_per_pair"] = L.med("server.batch") - L.med("db.batch")
}

func (b *bench) ledgerBatch(ctx context.Context, parent int) error {
	db, g := b.served.db, b.served.g
	// A cold build of the index the warm start maps, on one core.
	var spans reach.BuildSpans
	ix, err := reach.BuildCtx(ctx, reach.KindBFL, g, reach.Options{Prepared: db.Prepared(), Spans: &spans})
	if err != nil {
		return err
	}
	b.vals["bfl.build_s"] = spanSeconds(spans.Snapshot(), "index/build")
	b.vals["bfl.bytes"] = float64(ix.Stats().Bytes)
	var pairs []reach.Pair
	var wants []bool
	for k := 0; k < ledgerBatchRound; k++ {
		pairs = append(pairs, b.in.Batches[k]...)
		wants = append(wants, b.in.BatchWant[k]...)
	}
	chunks := chunk(pairs, wants, batchPairs)
	paths := make([]string, len(pairs))
	for i, p := range pairs {
		paths[i] = "/v1/reach?s=" + strconv.Itoa(int(p.S)) + "&t=" + strconv.Itoa(int(p.T))
	}
	st, err := startStack(db)
	if err != nil {
		return err
	}
	defer st.stop()
	c := newClient(st.base, 1)
	defer c.close()
	h := st.srv.Handler()
	L := layers{}
	var wrong int
	for r := 0; r < ledgerRounds; r++ {
		round := b.tr.begin("ledger.round", parent)
		b.probeLayers(ctx, L, round, ix, db, pairs, wants, &wrong)
		if err := b.batchLayers(ctx, L, round, ix, db, h, c, chunks, nil, &wrong); err != nil {
			return err
		}
		b.tr.end(round)
	}
	b.batchVals(L)
	// The stack layers of batch are per /v1/batch request.
	perReq := float64(len(pairs)) / float64(len(chunks))
	handler, rt, dbb := L.med("server.batch")*perReq, L.med("http.batch")*perReq, L.med("db.batch")*perReq
	b.vals["bfl.probe_ns"] = L.med("bfl.probe")
	b.vals["bfl.probe_pos_ns"] = L.med("bfl.probe_pos")
	b.vals["bfl.probe_neg_ns"] = L.med("bfl.probe_neg")
	b.vals["db.reach_ns"] = L.med("db.reach")
	b.vals["db.reach_self_ns"] = L.med("db.reach") - L.med("bfl.probe")
	b.vals["server.handler_us"] = handler / 1e3
	b.vals["server.self_us"] = (handler - dbb) / 1e3
	b.vals["http.roundtrip_us"] = rt / 1e3
	b.vals["http.self_us"] = (rt - handler) / 1e3
	reqs, recs, err := handlerCalls("POST", []string{"/v1/batch"}, [][]byte{chunks[0].body})
	if err != nil {
		return err
	}
	b.vals["server.allocs_per_req"] = allocsPer(1, func() { h.ServeHTTP(recs[0], reqs[0]) })
	b.vals["db.allocs_per_op"] = allocsPer(len(pairs), func() { dbReaches(ctx, db, pairs, wants) })
	return b.replayWrong(wrong)
}

func (b *bench) ledgerReadWrite(ctx context.Context, parent int) error {
	g := b.served.g
	// A replay DB with background rebuilds off, so its overlay stays at
	// the size the replay gives it.
	ldb, err := reach.NewDBCtx(ctx, g, reach.DBConfig{Metrics: true, Mutation: &reach.MutationConfig{
		WALPath: filepath.Join(b.runDir, "ledger-wal"), Fsync: reach.FsyncAlways, RebuildThreshold: -1,
	}})
	if err != nil {
		return err
	}
	defer ldb.Close()
	ix, err := reach.BuildCtx(ctx, reach.KindBFL, g, reach.Options{Prepared: ldb.Prepared()})
	if err != nil {
		return err
	}
	b.vals["bfl.bytes"] = float64(ix.Stats().Bytes)
	pairs := make([]reach.Pair, len(b.in.Ledger))
	wants := make([]bool, len(b.in.Ledger))
	paths := make([]string, len(b.in.Ledger))
	for i, p := range b.in.Ledger {
		pairs[i], wants[i] = reach.Pair{S: p.S, T: p.T}, p.Want
		paths[i] = "/v1/reach?s=" + strconv.Itoa(int(p.S)) + "&t=" + strconv.Itoa(int(p.T))
	}
	L := layers{}
	var wrong int
	for r := 0; r < ledgerRounds; r++ {
		round := b.tr.begin("ledger.round", parent)
		b.probeLayers(ctx, L, round, ix, ldb, pairs, wants, &wrong)
		b.tr.end(round)
	}
	// The mutation path: sequential 4-op commits up to the pinned overlay.
	var commits []time.Duration
	mut := b.tr.begin("mutate.commit", parent)
	for k := 0; k < rwLedgerOps/rwOpsPerWrite; k++ {
		t0 := time.Now()
		if err := ldb.Mutate(ctx, b.in.Writes[k]); err != nil {
			return fmt.Errorf("ledger mutate: %w", err)
		}
		commits = append(commits, time.Since(t0))
	}
	b.tr.end(mut)
	b.vals["mutate.commit_p50_us"] = us(percentile(commits, 50))
	b.vals["mutate.commit_p99_us"] = us(percentile(commits, 99))
	st, err := startStack(ldb)
	if err != nil {
		return err
	}
	defer st.stop()
	c := newClient(st.base, 1)
	defer c.close()
	h := st.srv.Handler()
	overlay := b.in.LedgerOverlay
	chunks := chunk(pairs, wants, len(pairs)/2)
	dbWants := [][]bool{overlay[:len(pairs)/2], overlay[len(pairs)/2:]}
	for r := 0; r < ledgerRounds; r++ {
		round := b.tr.begin("ledger.round", parent)
		L.add("db.reach_overlay", b.pass("db.reach_overlay", round, len(pairs), func() {
			wrong += dbReaches(ctx, ldb, pairs, overlay)
		}))
		reqs, recs, err := handlerCalls("GET", paths, nil)
		if err != nil {
			return err
		}
		L.add("server.handler", b.pass("server.handler", round, len(reqs), func() {
			for i, req := range reqs {
				h.ServeHTTP(recs[i], req)
			}
		}))
		wrong += checkRecorded(recs, overlay)
		L.add("http.roundtrip", b.pass("http.roundtrip", round, len(paths), func() {
			wrong += roundTrips(c, paths, overlay)
		}))
		if err := b.batchLayers(ctx, L, round, ix, ldb, h, c, chunks, dbWants, &wrong); err != nil {
			return err
		}
		b.tr.end(round)
	}
	b.stackLayers(L, "db.reach_overlay")
	b.vals["db.reach_overlay_ns"] = L.med("db.reach_overlay")
	b.batchVals(L)
	reqs, recs, err := handlerCalls("GET", paths, nil)
	if err != nil {
		return err
	}
	b.vals["server.allocs_per_req"] = allocsPer(len(reqs), func() {
		for i, req := range reqs {
			h.ServeHTTP(recs[i], req)
		}
	})
	b.vals["db.allocs_per_op"] = allocsPer(len(pairs), func() { dbReaches(ctx, ldb, pairs, overlay) })
	return b.replayWrong(wrong)
}
