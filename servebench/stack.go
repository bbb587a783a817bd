package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	reach "repro"
	"repro/internal/server"
)

// setupResult is one boot of the workload's DB, timed the way reachserve
// boots it: graph load plus NewDBCtx.
type setupResult struct {
	db      *reach.DB
	g       *reach.Graph
	seconds float64
	// loadSeconds is the graph read (text) or snapshot page-mapping alone.
	loadSeconds float64
	heapBytes   int64
	spans       []reach.PhaseSpan
}

// setup boots the workload's DB from the cached inputs in dir. walPath
// names the WAL of read-write and must not exist yet.
func setup(ctx context.Context, workload, dir, walPath string) (*setupResult, error) {
	runtime.GC()
	base := heapAlloc()
	start := time.Now()
	var g *reach.Graph
	var err error
	cfg := reach.DBConfig{Metrics: true}
	switch workload {
	case "point":
		g, err = readTextGraph(filepath.Join(dir, "graph.txt"))
		cfg.CacheSize = 65536
	case "batch":
		g, err = reach.LoadGraphSnapshot(filepath.Join(dir, "graph.snap"))
		cfg.PlainSnapshotMapped = filepath.Join(dir, "bfl.snap")
	case "read-write":
		g, err = readTextGraph(filepath.Join(dir, "graph.txt"))
		cfg.Mutation = &reach.MutationConfig{WALPath: walPath, Fsync: reach.FsyncAlways}
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	loaded := time.Since(start)
	db, err := reach.NewDBCtx(ctx, g, cfg)
	if err != nil {
		return nil, err
	}
	res := &setupResult{db: db, g: g, seconds: time.Since(start).Seconds(), loadSeconds: loaded.Seconds()}
	runtime.GC()
	res.heapBytes = heapAlloc() - base
	if snap, ok := db.MetricsSnapshot(); ok {
		res.spans = snap.Build
	}
	return res, nil
}

func heapAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// spanSeconds sums the durations of the named build spans that did real
// work (memo hits are skipped).
func spanSeconds(spans []reach.PhaseSpan, name string) float64 {
	var total time.Duration
	for _, s := range spans {
		if s.Name == name && !s.Cached {
			total += s.Dur
		}
	}
	return total.Seconds()
}

// stack is the serving tier under test: an internal/server Server over
// the DB on a loopback listener in this process, with the request tracer
// and access log off.
type stack struct {
	srv  *server.Server
	base string
	done chan error
}

func startStack(db *reach.DB) (*stack, error) {
	srv, err := server.New(server.Config{DB: db, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &stack{srv: srv, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { st.done <- srv.Serve(ln) }()
	return st, nil
}

// stop drains the server and waits for Serve to return.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if serr := <-st.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client is a keep-alive HTTP client holding at most conns connections
// to the stack.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole body into buf. It reports the
// status code, or an error for a transport failure.
func (c *client) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// runDir is a per-process scratch directory for files a run creates
// (WALs); it is removed when the run ends.
func runDir(dataDir string) (string, error) {
	dir := filepath.Join(dataDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
