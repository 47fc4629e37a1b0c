package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// patchByUpdates applies ups to g and returns FreezePatch from prev over
// the sources of the updates that changed g.
func patchByUpdates(p *Patcher, g *Graph, prev *CSR, ups []Update) *CSR {
	var touched []Node
	for _, up := range ups {
		if g.Apply([]Update{up}) == 1 {
			touched = append(touched, up.From)
		}
	}
	slices.Sort(touched)
	return g.FreezePatch(p, prev, slices.Compact(touched))
}

// FuzzCSRPatch decodes an arbitrary graph and update list from bytes and
// checks that patching the old snapshot by the touched rows equals freezing
// the updated graph, array for array, over several rounds on one Patcher.
func FuzzCSRPatch(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 2}, []byte{2, 3, 1})                      // insert into an empty row
	f.Add(uint8(3), []byte{0, 1, 0, 2, 2, 0}, []byte{0, 1, 0, 2, 0, 0})       // first and last row
	f.Add(uint8(3), []byte{0, 1}, []byte{1, 2, 1, 1, 2, 1})                   // duplicate insert
	f.Add(uint8(3), []byte{0, 1}, []byte{1, 2, 1, 1, 2, 0})                   // insert then delete the same edge
	f.Add(uint8(2), []byte{0, 0, 0, 1, 1, 0, 1, 1}, []byte{0, 0, 0, 1, 1, 0}) // self-loops, a row emptied
	f.Add(uint8(1), []byte{}, []byte{0, 0, 1})
	f.Add(uint8(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, n uint8, edges, ups []byte) {
		g := New(nil)
		for v := 0; v < int(n); v++ {
			g.AddNode(Label(v % 3))
		}
		if n == 0 {
			g.AddNode(0)
			n = 1
		}
		node := func(b byte) Node { return Node(int(b) % int(n)) }
		for i := 0; i+1 < len(edges); i += 2 {
			g.AddEdge(node(edges[i]), node(edges[i+1]))
		}
		var p, pu Patcher
		prev := g.Freeze()
		prevU := prev
		// Three updates per round, so rounds patch a patched snapshot. The
		// same rounds go through ApplyUpdates as one group of one-update
		// batches, from the snapshot alone.
		for len(ups) >= 3 {
			var round []Update
			var group [][]Update
			for k := 0; k < 3 && len(ups) >= 3; k++ {
				up := Update{From: node(ups[0]), To: node(ups[1]), Insert: ups[2]&1 == 1}
				round, group = append(round, up), append(group, []Update{up})
				ups = ups[3:]
			}
			got := patchByUpdates(&p, g, prev, round)
			want := g.Freeze()
			if !got.Equal(want) {
				t.Fatalf("patched snapshot differs from Freeze after %v", round)
			}
			gotU, changed := pu.ApplyUpdates(prevU, group)
			if !gotU.Equal(want) {
				t.Fatalf("ApplyUpdates differs from Freeze after %v", round)
			}
			for _, u := range changed {
				if slices.Equal(prevU.Successors(u), gotU.Successors(u)) {
					t.Fatalf("ApplyUpdates lists row %d as changed, but it is not", u)
				}
			}
			prev, prevU = got, gotU
		}
	})
}

func TestFreezePatchMatchesFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(nil)
	const n = 300
	for v := 0; v < n; v++ {
		g.AddNode(Label(v % 5))
	}
	for i := 0; i < 1500; i++ {
		g.AddEdge(Node(rng.Intn(n)), Node(rng.Intn(n)))
	}
	var p Patcher
	prev := g.Freeze()
	for round := 0; round < 200; round++ {
		var ups []Update
		for k := rng.Intn(40); k >= 0; k-- {
			u := Node(rng.Intn(n))
			if rng.Intn(4) == 0 {
				u = 0 // a hub row, hit again and again
			}
			ups = append(ups, Update{From: u, To: Node(rng.Intn(n)), Insert: rng.Intn(2) == 0})
		}
		got := patchByUpdates(&p, g, prev, ups)
		if !got.Equal(g.Freeze()) {
			t.Fatalf("round %d: patched snapshot differs from Freeze", round)
		}
		prev = got
	}
}

// TestPatchGrowsAndShrinks drives Patch the way a quotient uses it: the
// node count moves, ids are reused for different rows, labels change.
func TestPatchGrowsAndShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := func(n int) *Graph {
		g := New(nil)
		for v := 0; v < n; v++ {
			g.AddNode(Label(rng.Intn(4)))
		}
		for i := 0; i < 4*n; i++ {
			g.AddEdge(Node(rng.Intn(n)), Node(rng.Intn(n)))
		}
		return g
	}
	var p Patcher
	a := random(40)
	prev := a.Freeze()
	for round := 0; round < 60; round++ {
		// The next graph keeps most rows of the previous one below the
		// smaller node count and redraws the rest.
		n := 20 + rng.Intn(40)
		b := random(n)
		keep := min(n, a.NumNodes())
		for v := 0; v < keep; v++ {
			row := a.Successors(Node(v))
			if rng.Intn(3) == 0 || len(row) > 0 && int(row[len(row)-1]) >= n {
				continue
			}
			for _, w := range slices.Clone(b.Successors(Node(v))) {
				b.RemoveEdge(Node(v), w)
			}
			for _, w := range row {
				b.AddEdge(Node(v), w)
			}
			b.SetLabel(Node(v), a.Label(Node(v)))
		}
		var ids []Node
		for v := 0; v < n; v++ {
			if v >= keep || !slices.Equal(a.Successors(Node(v)), b.Successors(Node(v))) || a.Label(Node(v)) != b.Label(Node(v)) {
				ids = append(ids, Node(v))
			}
		}
		got := p.Patch(prev, n, ids,
			func(k int) []Node { return b.Successors(ids[k]) },
			func(k int) Label { return b.Label(ids[k]) })
		if !got.Equal(b.Freeze()) {
			t.Fatalf("round %d (%d -> %d nodes, %d rows given): patched snapshot differs from Freeze", round, a.NumNodes(), n, len(ids))
		}
		a, prev = b, got
	}
}
