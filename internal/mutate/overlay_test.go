package mutate

import (
	"sort"
	"testing"
)

// baseOf builds an inBase predicate from an edge list.
func baseOf(edges ...[2]uint32) func(from, to uint32) bool {
	set := make(map[uint64]struct{}, len(edges))
	for _, e := range edges {
		set[edgeKey(e[0], e[1])] = struct{}{}
	}
	return func(from, to uint32) bool {
		_, ok := set[edgeKey(from, to)]
		return ok
	}
}

func add(from, to uint32) Op    { return Op{From: from, To: to} }
func remove(from, to uint32) Op { return Op{Remove: true, From: from, To: to} }

// TestOverlayNetSemantics drives op sequences against bases and checks
// the overlay converges to the net difference — the property the exact
// query path and the reindexer both depend on.
func TestOverlayNetSemantics(t *testing.T) {
	tests := []struct {
		name        string
		base        func(from, to uint32) bool
		ops         []Op
		wantAdded   [][2]uint32
		wantRemoved [][2]uint32
	}{
		{
			name:      "add new edge",
			base:      baseOf(),
			ops:       []Op{add(1, 2)},
			wantAdded: [][2]uint32{{1, 2}},
		},
		{
			name: "add existing edge is a no-op",
			base: baseOf([2]uint32{1, 2}),
			ops:  []Op{add(1, 2)},
		},
		{
			name:        "remove base edge",
			base:        baseOf([2]uint32{1, 2}),
			ops:         []Op{remove(1, 2)},
			wantRemoved: [][2]uint32{{1, 2}},
		},
		{
			name: "remove absent edge is a no-op",
			base: baseOf(),
			ops:  []Op{remove(1, 2)},
		},
		{
			name: "add then remove cancels",
			base: baseOf(),
			ops:  []Op{add(1, 2), remove(1, 2)},
		},
		{
			name: "remove then add cancels",
			base: baseOf([2]uint32{1, 2}),
			ops:  []Op{remove(1, 2), add(1, 2)},
		},
		{
			// The regression ISSUE calls out: add/remove/add of the same
			// edge must converge to exactly one edge, not zero or two.
			name:      "add remove add converges (new edge)",
			base:      baseOf(),
			ops:       []Op{add(1, 2), remove(1, 2), add(1, 2)},
			wantAdded: [][2]uint32{{1, 2}},
		},
		{
			name: "remove add remove converges (base edge)",
			base: baseOf([2]uint32{1, 2}),
			ops: []Op{
				remove(1, 2), add(1, 2), remove(1, 2),
			},
			wantRemoved: [][2]uint32{{1, 2}},
		},
		{
			name:      "self-loop add remove add",
			base:      baseOf(),
			ops:       []Op{add(7, 7), remove(7, 7), add(7, 7)},
			wantAdded: [][2]uint32{{7, 7}},
		},
		{
			name:        "self-loop in base removed",
			base:        baseOf([2]uint32{7, 7}),
			ops:         []Op{remove(7, 7)},
			wantRemoved: [][2]uint32{{7, 7}},
		},
		{
			// Duplicate adds of the same new edge must not double-count
			// in addedSucc (a later unadd would leave a phantom).
			name:      "duplicate adds collapse",
			base:      baseOf(),
			ops:       []Op{add(1, 2), add(1, 2), add(1, 2)},
			wantAdded: [][2]uint32{{1, 2}},
		},
		{
			name: "duplicate adds then one remove clears",
			base: baseOf(),
			ops:  []Op{add(1, 2), add(1, 2), remove(1, 2)},
		},
		{
			name:        "mixed edges stay independent",
			base:        baseOf([2]uint32{1, 2}, [2]uint32{3, 4}),
			ops:         []Op{remove(1, 2), add(5, 6), remove(3, 4), add(3, 4)},
			wantAdded:   [][2]uint32{{5, 6}},
			wantRemoved: [][2]uint32{{1, 2}},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			o := NewOverlay()
			for _, op := range tc.ops {
				o.Apply(op, tc.base)
			}
			checkOverlay(t, o, tc.wantAdded, tc.wantRemoved)
		})
	}
}

func checkOverlay(t *testing.T, o *Overlay, wantAdded, wantRemoved [][2]uint32) {
	t.Helper()
	var gotAdded, gotRemoved [][2]uint32
	o.AddedEdges(func(from, to uint32) { gotAdded = append(gotAdded, [2]uint32{from, to}) })
	o.RemovedEdges(func(from, to uint32) { gotRemoved = append(gotRemoved, [2]uint32{from, to}) })
	sortEdges(gotAdded)
	sortEdges(gotRemoved)
	sortEdges(wantAdded)
	sortEdges(wantRemoved)
	if !sameEdges(gotAdded, wantAdded) {
		t.Errorf("added = %v, want %v", gotAdded, wantAdded)
	}
	if !sameEdges(gotRemoved, wantRemoved) {
		t.Errorf("removed = %v, want %v", gotRemoved, wantRemoved)
	}
	if o.AddedCount() != len(wantAdded) || o.RemovedCount() != len(wantRemoved) {
		t.Errorf("counts = %d/%d, want %d/%d",
			o.AddedCount(), o.RemovedCount(), len(wantAdded), len(wantRemoved))
	}
	if o.Size() != len(wantAdded)+len(wantRemoved) {
		t.Errorf("Size = %d", o.Size())
	}
	if o.Empty() != (len(wantAdded)+len(wantRemoved) == 0) {
		t.Errorf("Empty = %v", o.Empty())
	}
	// addedSucc must index exactly the added set.
	nsucc := 0
	for _, e := range wantAdded {
		found := false
		for _, v := range o.AddedSucc(e[0]) {
			if v == e[1] {
				found = true
			}
		}
		if !found {
			t.Errorf("AddedSucc(%d) misses %d", e[0], e[1])
		}
	}
	seen := map[uint32]bool{}
	for _, e := range wantAdded {
		if !seen[e[0]] {
			seen[e[0]] = true
			nsucc += len(o.AddedSucc(e[0]))
		}
	}
	if nsucc != len(wantAdded) {
		t.Errorf("addedSucc holds %d entries, want %d (phantom or dropped successor)",
			nsucc, len(wantAdded))
	}
	checkIndexes(t, o)
}

// checkIndexes requires the search's indexes to agree with the net sets:
// succ and pred hold exactly the added and the removed edges, and both
// endpoints of every added or removed edge are touched.
func checkIndexes(t *testing.T, o *Overlay) {
	t.Helper()
	has := func(list []uint32, x uint32) bool {
		for _, y := range list {
			if y == x {
				return true
			}
		}
		return false
	}
	o.AddedEdges(func(u, v uint32) {
		if !has(o.AddedSucc(u), v) || !has(o.pred.get(v).added, u) {
			t.Errorf("added %d→%d missing from succ %v or pred %v", u, v, o.AddedSucc(u), o.pred.get(v).added)
		}
		if !o.touched.Test(int(u)) || !o.touched.Test(int(v)) {
			t.Errorf("added %d→%d has an untouched endpoint", u, v)
		}
	})
	o.RemovedEdges(func(u, v uint32) {
		if !o.touched.Test(int(u)) || !o.touched.Test(int(v)) {
			t.Errorf("removed %d→%d has an untouched endpoint", u, v)
		}
	})
	for name, tab := range map[string]table{"succ": o.succ, "pred": o.pred} {
		added, cut := 0, 0
		tab.each(func(v uint32, d *delta) {
			if len(d.added)+len(d.cut) == 0 {
				t.Errorf("%s keeps an empty entry for %d", name, v)
			}
			for _, w := range d.cut {
				from, to := v, w
				if name == "pred" {
					from, to = w, v
				}
				if !o.HasRemoved(from, to) {
					t.Errorf("%s[%d] cuts %d, which is not removed", name, v, w)
				}
			}
			added += len(d.added)
			cut += len(d.cut)
		})
		if added != o.AddedCount() || cut != o.RemovedCount() {
			t.Errorf("%s holds %d added / %d cut entries, want %d / %d (phantom or dropped edge)",
				name, added, cut, o.AddedCount(), o.RemovedCount())
		}
	}
}

// TestOverlayIndexesConsistent checks the vertex indexes and the touched bitset
// against the net sets after each way an overlay is produced: Apply
// (including un-add and cancelled removals), Clone, and Rebase.
func TestOverlayIndexesConsistent(t *testing.T) {
	base := baseOf([2]uint32{1, 2}, [2]uint32{2, 3}, [2]uint32{7, 7})
	tests := []struct {
		name string
		ops  []Op
	}{
		{"adds", []Op{add(1, 3), add(4, 5), add(1, 5), add(9, 1)}},
		{"shared endpoints", []Op{add(1, 5), add(2, 5), add(5, 1), add(5, 5)}},
		{"removals", []Op{remove(1, 2), remove(7, 7)}},
		{"un-add keeps the rest", []Op{add(1, 5), add(2, 5), add(1, 6), remove(1, 5)}},
		{"un-add of the last pred", []Op{add(4, 5), remove(4, 5)}},
		{"cancelled removal", []Op{remove(2, 3), add(2, 3)}},
		{"add remove re-add", []Op{add(8, 9), remove(8, 9), add(8, 9)}},
		{"self-loops", []Op{add(6, 6), remove(7, 7), add(7, 7), add(6, 6)}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			o := NewOverlay()
			for _, op := range tc.ops {
				o.Apply(op, base)
				checkIndexes(t, o)
			}
			c := o.Clone()
			checkIndexes(t, c)
			c.Apply(add(40, 41), base)
			c.Apply(remove(1, 2), base)
			for _, v := range o.pred.get(5).added {
				c.Apply(remove(v, 5), base) // un-adds in the clone only
			}
			checkIndexes(t, c)
			checkIndexes(t, o)
			if o.touched.Test(40) || o.touched.Test(41) || len(o.pred.get(41).added) != 0 {
				t.Fatal("clone's add leaked into the original's indexes")
			}
			// Fold o into a new base and rebase the clone onto it.
			g1 := func(from, to uint32) bool {
				switch {
				case o.HasAdded(from, to):
					return true
				case o.HasRemoved(from, to):
					return false
				}
				return base(from, to)
			}
			out := Rebase(c, o, base, g1)
			checkIndexes(t, out)
			if !out.HasAdded(40, 41) || len(out.pred.get(41).added) != 1 {
				t.Fatalf("rebase lost the clone's add: pred(41) = %v", out.pred.get(41).added)
			}
		})
	}
}

func sortEdges(es [][2]uint32) {
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
}

func sameEdges(a, b [][2]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOverlayCloneIsolation(t *testing.T) {
	base := baseOf([2]uint32{1, 2})
	o := NewOverlay()
	o.Apply(add(3, 4), base)
	o.Apply(remove(1, 2), base)
	c := o.Clone()
	c.Apply(add(5, 6), base)
	c.Apply(add(1, 2), base) // cancels the removal in the clone only
	if !o.HasAdded(3, 4) || !o.HasRemoved(1, 2) || o.HasAdded(5, 6) {
		t.Fatalf("original mutated through clone: added=%d removed=%d",
			o.AddedCount(), o.RemovedCount())
	}
	if !c.HasAdded(5, 6) || c.HasRemoved(1, 2) {
		t.Fatalf("clone wrong: added=%d removed=%d", c.AddedCount(), c.RemovedCount())
	}
	// Deep copy extends to the successor index.
	if got := o.AddedSucc(5); len(got) != 0 {
		t.Fatalf("original AddedSucc(5) = %v", got)
	}
	// Writes to the original after the clone stay out of the clone, also
	// in the vertex chunks the two shared.
	o.Apply(add(3, 5), base)
	o.Apply(remove(3, 4), base)
	if c.HasAdded(3, 5) || !c.HasAdded(3, 4) || len(c.AddedSucc(3)) != 1 {
		t.Fatalf("clone changed through the original: AddedSucc(3) = %v", c.AddedSucc(3))
	}
}

// TestOverlayRebase covers the reindexer hand-off, including the revert
// race it exists for: an op arriving during the rebuild that undoes a
// change the snapshot already folded into the new base.
func TestOverlayRebase(t *testing.T) {
	g0 := baseOf([2]uint32{1, 2}, [2]uint32{3, 4})

	// Snapshot taken: remove (1,2), add (5,6).
	snap := NewOverlay()
	snap.Apply(remove(1, 2), g0)
	snap.Apply(add(5, 6), g0)

	// The new base g1 = g0 minus (1,2) plus (5,6).
	g1 := baseOf([2]uint32{3, 4}, [2]uint32{5, 6})

	t.Run("no ops during rebuild", func(t *testing.T) {
		out := Rebase(snap.Clone(), snap, g0, g1)
		if !out.Empty() {
			t.Fatalf("rebase of unchanged overlay = %d added %d removed, want empty",
				out.AddedCount(), out.RemovedCount())
		}
	})

	t.Run("ops during rebuild carry forward", func(t *testing.T) {
		cur := snap.Clone()
		cur.Apply(add(7, 8), g0)
		cur.Apply(remove(3, 4), g0)
		out := Rebase(cur, snap, g0, g1)
		if !out.HasAdded(7, 8) || !out.HasRemoved(3, 4) {
			t.Fatalf("mid-rebuild ops lost: added=%d removed=%d",
				out.AddedCount(), out.RemovedCount())
		}
		if out.Size() != 2 {
			t.Fatalf("Size = %d, want 2", out.Size())
		}
	})

	t.Run("revert of folded removal", func(t *testing.T) {
		// (1,2) was removed in the snapshot — g1 lacks it — then re-added
		// while the rebuild ran. cur sees the pair in *neither* net set
		// (remove then add cancels), yet the live graph has the edge and
		// g1 does not: only the snapshot comparison can recover it.
		cur := snap.Clone()
		cur.Apply(add(1, 2), g0)
		out := Rebase(cur, snap, g0, g1)
		if !out.HasAdded(1, 2) {
			t.Fatal("re-added edge lost across rebase")
		}
		if out.Size() != 1 {
			t.Fatalf("Size = %d, want 1", out.Size())
		}
	})

	t.Run("revert of folded addition", func(t *testing.T) {
		// Dual case: (5,6) was added in the snapshot — g1 has it — then
		// removed while the rebuild ran.
		cur := snap.Clone()
		cur.Apply(remove(5, 6), g0)
		out := Rebase(cur, snap, g0, g1)
		if !out.HasRemoved(5, 6) {
			t.Fatal("re-removed edge resurrected across rebase")
		}
		if out.Size() != 1 {
			t.Fatalf("Size = %d, want 1", out.Size())
		}
	})
}
