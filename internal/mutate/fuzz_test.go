package mutate

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/graph"
)

// FuzzWALReplay hammers the recovery path with arbitrary bytes. The
// invariants are the ones Open relies on to never lose an acknowledged
// write and never invent one:
//
//   - Replay never panics, whatever the input;
//   - Intact never exceeds the input length;
//   - a nil TailErr (with no fatal error) means the image was consumed
//     exactly: Intact == len(data);
//   - recovery is idempotent: replaying the reported intact prefix
//     yields the same batches, cleanly (this is precisely what a
//     post-truncation restart does);
//   - recovered sequence numbers are contiguous from 1.
func FuzzWALReplay(f *testing.F) {
	// Seed with an intact image plus systematic mutilations of it, so
	// coverage starts from the interesting region of the input space.
	img := fuzzSeedImage(f)
	f.Add([]byte{})
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:walHeaderLen])
	f.Add([]byte("RIX"))
	f.Add([]byte("not a wal at all"))
	corrupt := append([]byte(nil), img...)
	corrupt[len(corrupt)-3] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Replay(data)
		if err != nil {
			if rec.Intact != 0 || len(rec.Batches) != 0 {
				t.Fatalf("fatal error %v alongside recovered state %+v", err, rec)
			}
			return
		}
		if rec.Intact > int64(len(data)) {
			t.Fatalf("Intact %d > input %d", rec.Intact, len(data))
		}
		if rec.TailErr == nil && rec.Intact != int64(len(data)) {
			t.Fatalf("clean replay consumed %d of %d bytes", rec.Intact, len(data))
		}
		for i, b := range rec.Batches {
			if b.Seq != uint64(i+1) {
				t.Fatalf("batch %d has seq %d", i, b.Seq)
			}
		}
		// Replaying the intact prefix must be clean and identical.
		rec2, err := Replay(data[:rec.Intact])
		if err != nil || rec2.TailErr != nil {
			t.Fatalf("replay of intact prefix failed: %v / %v", err, rec2.TailErr)
		}
		if rec2.Intact != rec.Intact || len(rec2.Batches) != len(rec.Batches) {
			t.Fatalf("intact prefix replay diverged: %d/%d batches, %d/%d bytes",
				len(rec2.Batches), len(rec.Batches), rec2.Intact, rec.Intact)
		}
		for i := range rec.Batches {
			if rec2.Batches[i].Seq != rec.Batches[i].Seq || !sameOps(rec2.Batches[i].Ops, rec.Batches[i].Ops) {
				t.Fatalf("batch %d diverged across prefix replay", i)
			}
		}
	})
}

// fuzzSeedImage builds a small intact WAL in memory via the real writer.
func fuzzSeedImage(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	l, _, err := Open(dir+"/seed.wal", FsyncNever)
	if err != nil {
		f.Fatal(err)
	}
	for _, ops := range testBatches {
		if _, err := l.Append(ops); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/seed.wal")
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("RIX1")) {
		f.Fatalf("seed image lacks magic: %q", data[:8])
	}
	return data
}

// FuzzOverlaySearch runs an op sequence on a small graph and checks the
// overlay search against BFS over an independently kept model of the
// live graph. The first byte sizes the graph (2–10 vertices); each
// following byte pair (a, b) is one step, its kind in a's top two bits
// and its endpoints in a's low six bits and in b:
//
//	0 base edge (collected into the frozen base before any op runs)
//	1 add, 2 remove
//	3 reindexer hand-off: b even takes a snapshot (its live graph is
//	  the next base), b odd rebases the overlay onto it
func FuzzOverlaySearch(f *testing.F) {
	f.Add([]byte{4, 0x00, 1, 0x01, 2, 0x42, 0, 0x81, 2})
	f.Add([]byte{6, 0x00, 1, 0x01, 2, 0x02, 0, 0x85, 5, 0xc0, 0, 0x41, 3, 0x80, 1, 0xc0, 1, 0x40, 1})
	f.Add([]byte{3, 0x00, 0, 0x80, 0, 0x40, 0, 0x80, 0, 0x40, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		n := 2 + int(data[0])%9
		steps := data[1:]
		model := map[[2]uint32]bool{}
		var baseEdges [][2]uint32
		for i := 0; i+1 < len(steps); i += 2 {
			if steps[i]>>6 == 0 {
				e := [2]uint32{uint32(steps[i]&63) % uint32(n), uint32(steps[i+1]) % uint32(n)}
				baseEdges = append(baseEdges, e)
				model[e] = true
			}
		}
		g0 := graph.FromEdges(n, baseEdges)
		cur := NewOverlay()
		var snap *Overlay
		var g1 *graph.Digraph
		for i := 0; i+1 < len(steps); i += 2 {
			a, b := steps[i], steps[i+1]
			u, v := uint32(a&63)%uint32(n), uint32(b)%uint32(n)
			switch a >> 6 {
			case 1:
				cur.Apply(Op{From: u, To: v}, g0.HasEdge)
				model[[2]uint32{u, v}] = true
			case 2:
				cur.Apply(Op{Remove: true, From: u, To: v}, g0.HasEdge)
				delete(model, [2]uint32{u, v})
			case 3:
				if b&1 == 0 || snap == nil {
					snap, g1 = cur.Clone(), liveGraph(g0, cur)
					continue
				}
				cur = Rebase(cur, snap, g0.HasEdge, g1.HasEdge)
				g0, snap = g1, nil
			}
		}
		var edges [][2]uint32
		for e := range model {
			edges = append(edges, e)
		}
		if !sameGraph(liveGraph(g0, cur), graph.FromEdges(n, edges)) {
			t.Fatal("overlay diverged from the model live graph")
		}
		checkSearch(t, g0, cur)
	})
}
