package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a phase of the run, one
// replay pass of a layer, or one request of a traced load burst.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the run began; End is -1 while
	// the span is open.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// N is the number of operations the span covers (replay passes).
	N int `json:"n,omitempty"`
}

// tracer keeps the traced run's spans in memory and writes them out when
// the run ends. A nil *tracer records nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch)), End: -1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(time.Since(t.epoch))
	t.mu.Unlock()
}

// record adds a closed span covering n operations.
func (t *tracer) record(name string, parent int, start, end time.Time, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), N: n})
	t.mu.Unlock()
}

// write stores the spans as JSON lines in dataDir/traces/<workload>.jsonl,
// replacing the previous traced run of the workload.
func (t *tracer) write(dataDir, workload string) error {
	dir := filepath.Join(dataDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, workload+".jsonl"), func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	})
}
