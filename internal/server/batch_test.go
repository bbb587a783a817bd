package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	reach "repro"
	"repro/internal/gen"
)

// legacyVertexRef is the decoder vertexRef replaced: every token goes
// through json.Unmarshal, numbers via json.Number's text, and resolves
// through vertexOf. The digit fast path must agree with it token for token.
type legacyVertexRef struct{ raw string }

func (v *legacyVertexRef) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		return json.Unmarshal(b, &v.raw)
	}
	var n json.Number
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	v.raw = n.String()
	return nil
}

// TestVertexRefDecodeMatchesLegacy: the fast digit path and the legacy
// decoder give the same vertex, or the same error text, for each token.
func TestVertexRefDecodeMatchesLegacy(t *testing.T) {
	g := reach.Fig1Labeled()
	named := g.VertexName(3)
	for _, tok := range []string{
		`0`, `3`, `"3"`, strconv.Itoa(g.N() - 1),
		strconv.Itoa(g.N()), `99999`, `4294967295`, // out of range
		`4294967296`, `18446744073709551616`, // past uint32
		`1e3`, `-1`, `1.0`, `-0`,
		strconv.Quote(named), `"nosuch"`, `""`, `null`,
	} {
		var got vertexRef
		var want legacyVertexRef
		gotErr := json.Unmarshal([]byte(tok), &got)
		wantErr := json.Unmarshal([]byte(tok), &want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: decode err = %v, legacy %v", tok, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		gv, gErr := got.resolve(g)
		wv, wErr := vertexOf(g, want.raw)
		if gv != wv || fmt.Sprint(gErr) != fmt.Sprint(wErr) {
			t.Fatalf("%s: resolve = %d/%v, legacy %d/%v", tok, gv, gErr, wv, wErr)
		}
	}
	// A malformed body fails in the JSON decoder on both sides.
	var bad vertexRef
	if err := json.Unmarshal([]byte(`0x1`), &bad); err == nil {
		t.Fatal("0x1 decoded without error")
	}
}

// TestBatchMatchesPointReach: on a generated DAG, /v1/batch answers equal
// the per-pair /v1/reach answers, and the batch is served by the index
// (reach_index_batches_total moves on /metrics).
func TestBatchMatchesPointReach(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 2000, M: 8000, Seed: 11})
	db, err := reach.NewDB(g, reach.DBConfig{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{DB: db})
	before := promCounter(t, ts.URL, "reach_index_batches_total")

	qs := gen.Queries(g, 400, 12)
	var body strings.Builder
	body.WriteString(`{"pairs":[`)
	for i, q := range qs {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"s":%d,"t":%d}`, q.S, q.T)
	}
	body.WriteString(`]}`)
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	err = json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || len(br.Results) != len(qs) {
		t.Fatalf("POST /v1/batch: status %d, %d results, err %v", resp.StatusCode, len(br.Results), err)
	}
	for i, q := range qs {
		point := reachAnswer(t, ts.URL, int(q.S), int(q.T))
		if br.Results[i] != point || point != q.Want {
			t.Fatalf("pair %d (%d,%d): batch %v, /v1/reach %v, want %v", i, q.S, q.T, br.Results[i], point, q.Want)
		}
	}
	if after := promCounter(t, ts.URL, "reach_index_batches_total"); after <= before {
		t.Fatalf("reach_index_batches_total %d -> %d, want an increase", before, after)
	}
}

// promCounter sums every series of one counter family on /metrics.
func promCounter(t *testing.T, url, family string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum int64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		sum += v
	}
	return sum
}
