package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// traffic turns a workload's generated requests into HTTP calls and
// checks every reply against the oracle.
type traffic struct {
	in     *inputs
	paths  []string // GET path per request of in.Reqs (query kinds)
	bodies [][]byte // /v1/batch bodies (batch) or /v1/mutate bodies (read-write)
	// checkReads is false for read-write, whose reads race with writes.
	checkReads bool
	// acked marks the writes the server acknowledged.
	acked []atomic.Bool
}

func newTraffic(in *inputs) (*traffic, error) {
	tf := &traffic{in: in, checkReads: in.Workload != "read-write"}
	for _, r := range in.Reqs {
		var p string
		switch r.Kind {
		case kindReach:
			p = "/v1/reach?s=" + strconv.Itoa(int(r.S)) + "&t=" + strconv.Itoa(int(r.T))
		case kindLCR, kindRLC:
			p = "/v1/query?s=" + strconv.Itoa(int(r.S)) + "&t=" + strconv.Itoa(int(r.T)) +
				"&alpha=" + url.QueryEscape(in.Alphas[r.Alpha])
		}
		tf.paths = append(tf.paths, p)
	}
	type pairJSON struct {
		S uint32 `json:"s"`
		T uint32 `json:"t"`
	}
	for _, b := range in.Batches {
		ps := make([]pairJSON, len(b))
		for i, p := range b {
			ps[i] = pairJSON{p.S, p.T}
		}
		body, err := json.Marshal(map[string]any{"pairs": ps})
		if err != nil {
			return nil, err
		}
		tf.bodies = append(tf.bodies, body)
	}
	type opJSON struct {
		Op string `json:"op"`
		S  uint32 `json:"s"`
		T  uint32 `json:"t"`
	}
	for _, w := range in.Writes {
		ops := make([]opJSON, len(w))
		for i, op := range w {
			ops[i] = opJSON{"add", op.From, op.To}
			if op.Remove {
				ops[i].Op = "remove"
			}
		}
		body, err := json.Marshal(map[string]any{"ops": ops})
		if err != nil {
			return nil, err
		}
		tf.bodies = append(tf.bodies, body)
	}
	tf.acked = make([]atomic.Bool, len(in.Writes))
	return tf, nil
}

// units is the number of distinct request slots the workload cycles
// through.
func (tf *traffic) units() int {
	if tf.in.Workload == "batch" {
		return len(tf.in.Batches)
	}
	return len(tf.in.Reqs)
}

// outcome is what one request came back with.
type outcome struct {
	kind   uint8
	pairs  int  // pairs answered (0 for writes and failures)
	failed bool // transport error or non-2xx (429 included)
	wrong  bool // 2xx with an answer the oracle disagrees with
}

var (
	reachTrue  = []byte("{\"reachable\":true}\n")
	reachFalse = []byte("{\"reachable\":false}\n")
)

// send issues request slot i (modulo units) and checks the reply.
func (tf *traffic) send(c *client, buf *bytes.Buffer, i int) outcome {
	i %= tf.units()
	if tf.in.Workload == "batch" {
		o := outcome{kind: kindReach}
		code, err := c.do("POST", "/v1/batch", tf.bodies[i], buf)
		if err != nil || code/100 != 2 {
			o.failed = true
			return o
		}
		var resp struct {
			Results []bool `json:"results"`
		}
		want := tf.in.BatchWant[i]
		if json.Unmarshal(buf.Bytes(), &resp) != nil || len(resp.Results) != len(want) {
			o.wrong = true
			return o
		}
		for k, got := range resp.Results {
			if got != want[k] {
				o.wrong = true
			}
		}
		o.pairs = len(want)
		return o
	}
	r := &tf.in.Reqs[i]
	o := outcome{kind: r.Kind}
	if r.Kind == kindWrite {
		code, err := c.do("POST", "/v1/mutate", tf.bodies[r.Write], buf)
		if err != nil || code/100 != 2 {
			o.failed = true
			return o
		}
		tf.acked[r.Write].Store(true)
		return o
	}
	code, err := c.do("GET", tf.paths[i], nil, buf)
	if err != nil || code/100 != 2 {
		o.failed = true
		return o
	}
	var got bool
	switch {
	case bytes.Equal(buf.Bytes(), reachTrue):
		got = true
	case bytes.Equal(buf.Bytes(), reachFalse):
	default:
		o.wrong = true
		return o
	}
	o.wrong = tf.checkReads && got != r.Want
	o.pairs = 1
	return o
}

// sample is one completed request.
type sample struct {
	kind  uint8
	pairs int
	lat   time.Duration
	start time.Time // when it was due (open loop) or sent (closed loop)
}

// phase is the outcome of one load phase.
type phase struct {
	samples   []sample
	late      []time.Duration // open loop: how far past its due time a paced send woke
	attempted int
	failed    int
	wrong     int
	pairs     int
	begin     time.Time
	elapsed   time.Duration
}

func (p *phase) add(o outcome, s sample) {
	p.attempted++
	switch {
	case o.failed:
		p.failed++
	case o.wrong:
		p.wrong++
	}
	p.pairs += o.pairs
	if !o.failed {
		s.pairs = o.pairs
		p.samples = append(p.samples, s)
	}
}

func (p *phase) merge(q *phase) {
	p.samples = append(p.samples, q.samples...)
	p.late = append(p.late, q.late...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.wrong += q.wrong
	p.pairs += q.pairs
}

// latencies returns the latencies of samples of the given kinds (all
// kinds when none are given).
func (p *phase) latencies(kinds ...uint8) []time.Duration {
	var out []time.Duration
	for _, w := range p.windows(1, kinds...) {
		out = append(out, w...)
	}
	return out
}

// windows splits the latencies of samples of the given kinds into k
// consecutive windows of the phase by due (open loop) or send time.
func (p *phase) windows(k int, kinds ...uint8) [][]time.Duration {
	out := make([][]time.Duration, k)
	span := float64(p.elapsed)
	for _, s := range p.samples {
		if len(kinds) > 0 && !containsKind(kinds, s.kind) {
			continue
		}
		w := int(float64(s.start.Sub(p.begin)) / span * float64(k))
		w = min(max(w, 0), k-1)
		out[w] = append(out[w], s.lat)
	}
	return out
}

// rates returns the median over k windows of the phase of the completed
// requests and answered pairs per second, by completion time. The median
// of windows keeps one transient stall from setting the run's figure.
func (p *phase) rates(k int) (reqs, pairs float64) {
	nreq, npair := make([]float64, k), make([]float64, k)
	span := float64(p.elapsed)
	for _, s := range p.samples {
		w := int(float64(s.start.Add(s.lat).Sub(p.begin)) / span * float64(k))
		w = min(max(w, 0), k-1)
		nreq[w]++
		npair[w] += float64(s.pairs)
	}
	secs := p.elapsed.Seconds() / float64(k)
	return median(nreq) / secs, median(npair) / secs
}

func containsKind(ks []uint8, k uint8) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

// poissonSchedule returns n due offsets of a Poisson arrival process at
// rate per second, seeded.
func poissonSchedule(n int, rate float64, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// openLoop sends request first+i at due[i] after the phase starts, over
// `workers` connections, whatever the replies do: a request whose due
// time passes while every connection is busy waits, and that wait counts.
// Latency is timed from the due time, not from the send. A pacer (see
// pacer) releases each request at its due time and records how late it
// woke as generator lateness; the workers send what it releases.
func openLoop(workers int, due []time.Duration, first int, send func(w, i int) outcome) (*phase, error) {
	pc, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer pc.close()
	// Sized to the whole schedule so the pacer never blocks: when the
	// server falls behind, the backlog queues here and shows in latency.
	ready := make(chan int, len(due))
	parts := make([]*phase, workers)
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for w := 0; w < workers; w++ {
		parts[w] = &phase{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := parts[w]
			for i := range ready {
				at := start.Add(due[i])
				o := send(w, first+i)
				p.add(o, sample{kind: o.kind, lat: time.Since(at), start: at})
			}
		}(w)
	}
	pacing := &phase{}
	for i := range due {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			if err = pc.sleep(d); err != nil {
				break
			}
			pacing.late = append(pacing.late, time.Since(at))
		}
		ready <- i
	}
	close(ready)
	wg.Wait()
	total := &phase{begin: start, elapsed: time.Since(start)}
	total.merge(pacing)
	for _, p := range parts {
		total.merge(p)
	}
	return total, err
}

// pacedLoop runs `workers` closed-loop clients held to a schedule: request
// i goes out at due[i] after the phase starts, or as soon as a client is
// free if every client is still busy then. Latency is timed from the send,
// as in any closed loop; the schedule caps the offered rate, so the
// system keeps spare capacity for background work.
func pacedLoop(workers int, due []time.Duration, first int, send func(w, i int) outcome) (*phase, error) {
	var next atomic.Int64
	parts := make([]*phase, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for w := 0; w < workers; w++ {
		parts[w] = &phase{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pc, err := newPacer()
			if err != nil {
				errs[w] = err
				return
			}
			defer pc.close()
			p := parts[w]
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					if errs[w] = pc.sleep(d); errs[w] != nil {
						return
					}
					p.late = append(p.late, time.Since(at))
				}
				t0 := time.Now()
				o := send(w, first+i)
				p.add(o, sample{kind: o.kind, lat: time.Since(t0), start: t0})
			}
		}(w)
	}
	wg.Wait()
	total := &phase{begin: start, elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total, errors.Join(errs...)
}

// closedLoop runs `workers` clients that each send their next request as
// soon as the previous reply arrives, for dur. Latency is timed from the
// send.
func closedLoop(workers int, dur time.Duration, first int, send func(w, i int) outcome) *phase {
	var next atomic.Int64
	parts := make([]*phase, workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < workers; w++ {
		parts[w] = &phase{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := parts[w]
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				o := send(w, first+i)
				p.add(o, sample{kind: o.kind, lat: time.Since(t0), start: t0})
			}
		}(w)
	}
	wg.Wait()
	total := &phase{begin: start, elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// sender binds traffic to one client per worker.
func sender(tf *traffic, c *client, workers int) func(w, i int) outcome {
	bufs := make([]*bytes.Buffer, workers)
	for i := range bufs {
		bufs[i] = new(bytes.Buffer)
	}
	return func(w, i int) outcome { return tf.send(c, bufs[w], i) }
}
