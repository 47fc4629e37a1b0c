package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// patchByUpdates applies ups to g and returns prev — a snapshot of g's
// state before — patched at the rows of the updates that changed g.
func patchByUpdates(p *Patcher, g *Graph, prev *CSR, ups []Update) *CSR {
	var touched []Node
	for _, up := range ups {
		if g.Apply([]Update{up}) == 1 {
			touched = append(touched, up.From)
		}
	}
	slices.Sort(touched)
	return patchRows(p, g, prev, slices.Compact(touched))
}

// freezeApart returns a compact snapshot of g over arenas of its own with
// no room spare, as the bulk constructors build one: a patch chain started
// from it never meets g's writes.
func freezeApart(g *Graph) *CSR {
	c := g.Freeze()
	off, rows := c.out.offsets(), make([]span, c.NumNodes())
	for v := range rows {
		rows[v] = span{off[v], off[v+1]}
	}
	out := compactSide(rows, slices.Clone(c.out.flat(c.m)))
	return &CSR{labels: c.labels, label: c.label, m: c.m, out: out, in: transpose(&out, c.m)}
}

// patchRows patches prev at the rows ids, ascending, to g's rows there.
func patchRows(p *Patcher, g *Graph, prev *CSR, ids []Node) *CSR {
	return p.Patch(prev, g.NumNodes(), ids, func(k int) []Node { return g.Successors(ids[k]) }, nil)
}

// snapshot is a CSR with a Freeze of the graph it must equal, taken when it
// was built: later patches share its arenas and must never write its rows.
type snapshot struct{ c, want *CSR }

func (s snapshot) intact() bool { return s.c.Equal(s.want) }

// FuzzCSRPatch decodes an arbitrary graph and update list from bytes and
// checks that patching the old snapshot by the touched rows equals freezing
// the updated graph, over chains of rounds on one Patcher that cross
// compactions. The chain starts from a snapshot over arenas of its own.
// Every round also patches the previous snapshot a second time
// down another branch — no longer its arena's tip — and every snapshot of
// the chain must still equal its Freeze at the end.
func FuzzCSRPatch(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 2}, []byte{2, 3, 1})                      // insert into an empty row
	f.Add(uint8(3), []byte{0, 1, 0, 2, 2, 0}, []byte{0, 1, 0, 2, 0, 0})       // first and last row
	f.Add(uint8(3), []byte{0, 1}, []byte{1, 2, 1, 1, 2, 1})                   // duplicate insert
	f.Add(uint8(3), []byte{0, 1}, []byte{1, 2, 1, 1, 2, 0})                   // insert then delete the same edge
	f.Add(uint8(2), []byte{0, 0, 0, 1, 1, 0, 1, 1}, []byte{0, 0, 0, 1, 1, 0}) // self-loops, a row emptied
	f.Add(uint8(1), []byte{}, []byte{0, 0, 1})
	f.Add(uint8(0), []byte{}, []byte{})
	long := make([]byte, 0, 3*60) // a chain long enough to pack more than once
	for i := 0; i < 60; i++ {
		long = append(long, byte(i%5), byte(i*7%9), byte(i%3))
	}
	f.Add(uint8(9), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 0}, long)
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
		var p, p2 Patcher
		prev := freezeApart(g)
		chain := []snapshot{{prev, g.Freeze()}}
		// Three updates per round, so rounds patch a patched snapshot.
		for len(ups) >= 3 {
			var round []Update
			for k := 0; k < 3 && len(ups) >= 3; k++ {
				round = append(round, Update{From: node(ups[0]), To: node(ups[1]), Insert: ups[2]&1 == 1})
				ups = ups[3:]
			}
			before := g.Clone()
			got := patchByUpdates(&p, g, prev, round)
			want := g.Freeze()
			if !got.Equal(want) {
				t.Fatalf("patched snapshot differs from Freeze after %v", round)
			}
			// prev again, down another branch: got may have claimed its
			// arena's tip, and the branch must not write over got's rows.
			flip := Update{From: round[0].From, To: round[0].To, Insert: !round[0].Insert}
			before.Apply([]Update{flip})
			branch := patchRows(&p2, before, prev, []Node{flip.From})
			if !branch.Equal(before.Freeze()) {
				t.Fatalf("a second patch of the same snapshot differs from Freeze after %v", flip)
			}
			chain = append(chain, snapshot{got, want}, snapshot{branch, before.Freeze()})
			prev = got
		}
		for i, s := range chain {
			if !s.intact() {
				t.Fatalf("snapshot %d of the chain changed after later patches", i)
			}
		}
	})
}

// TestPatchChainsShareAndCompact drives Patch down one long chain and
// branches off it: in-place appends, packs for the dead share and for a full
// arena, and second patches of a CSR that is no longer its arena's tip must
// all occur, every result equals Freeze, and no snapshot of the chain ever
// changes.
func TestPatchChainsShareAndCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 400
	g := randomGraph(rng, n, 1600, 3)
	var p, pb Patcher
	prev := freezeApart(g)
	chain := []snapshot{{prev, g.Freeze()}}
	var inPlace, packed, branched int
	for round := 0; round < 300; round++ {
		var ups []Update
		for k := 1 + rng.Intn(12); k > 0; k-- {
			u := Node(rng.Intn(n))
			if rng.Intn(3) == 0 {
				u = Node(rng.Intn(4)) // rows replaced again and again leave dead entries
			}
			ups = append(ups, Update{From: u, To: Node(rng.Intn(n)), Insert: rng.Intn(2) == 0})
		}
		if round%25 == 24 {
			// A branch: the graph's next state patched from an older
			// snapshot, whose arena tip has long moved on.
			old := chain[len(chain)-10]
			behind := func(s *side) bool { return int(s.ar.tip.Load()) != len(s.adj) }
			outBehind, inBehind := behind(&old.c.out), behind(&old.c.in)
			mirror := old.want.Thaw()
			b := patchByUpdates(&pb, mirror, old.c, ups)
			if !b.Equal(mirror.Freeze()) {
				t.Fatalf("round %d: a patch of an older snapshot differs from Freeze", round)
			}
			if b != old.c && (outBehind && b.out.ar == old.c.out.ar || inBehind && b.in.ar == old.c.in.ar) {
				t.Fatalf("round %d: a patch of a snapshot behind its arena's tip wrote into that arena", round)
			}
			if outBehind || inBehind {
				branched++
			}
			chain = append(chain, snapshot{b, mirror.Freeze()})
		}
		got := patchByUpdates(&p, g, prev, ups)
		if !got.Equal(g.Freeze()) {
			t.Fatalf("round %d: patched snapshot differs from Freeze", round)
		}
		for _, sd := range []struct{ a, b *side }{{&got.out, &prev.out}, {&got.in, &prev.in}} {
			switch {
			case sd.a.ar == sd.b.ar:
				inPlace++
			case sd.a.compact:
				packed++
			}
			if len(sd.a.adj) > len(sd.a.ar.buf) || len(sd.a.ar.buf) > 2*got.m+64 {
				t.Fatalf("round %d: an arena of %d entries for %d live", round, len(sd.a.ar.buf), got.m)
			}
		}
		chain = append(chain, snapshot{got, g.Freeze()})
		prev = got
	}
	for i, s := range chain {
		if !s.intact() {
			t.Fatalf("snapshot %d of the chain changed after later patches", i)
		}
	}
	t.Logf("%d sides patched in place, %d packed, %d branches", inPlace, packed, branched)
	if inPlace < 400 || packed < 4 || branched == 0 {
		t.Fatalf("%d sides patched in place and %d packed: the chain does not exercise both", inPlace, packed)
	}
}

// TestPatchAllocatesWhatChanged gates the cost of a patch on a graph of
// social16's size: over 200 chained Patch calls of 32 updates each,
// every call that packs no side allocates at most the two row tables plus
// 16 bytes per entry it appends. Allocation counts are deterministic, so
// this needs no wall clock.
func TestPatchAllocatesWhatChanged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 15500
	g := randomGraph(rng, n, 79600, 16)
	var p Patcher
	prev := freezeApart(g)
	rowTables := 2 * (n*8 + 8192) // a large allocation is rounded up to whole pages
	var before, after runtime.MemStats
	inPlace, worst := 0, 0
	for call := 0; call < 200; call++ {
		var touched []Node
		for k := 0; k < 32; k++ {
			up := Update{From: Node(rng.Intn(n)), To: Node(rng.Intn(n)), Insert: rng.Intn(2) == 0}
			if g.Apply([]Update{up}) == 1 {
				touched = append(touched, up.From)
			}
		}
		slices.Sort(touched)
		touched = slices.Compact(touched)
		runtime.ReadMemStats(&before)
		got := patchRows(&p, g, prev, touched)
		runtime.ReadMemStats(&after)
		if got.out.ar != prev.out.ar || got.in.ar != prev.in.ar {
			prev = got
			continue
		}
		inPlace++
		appended := len(got.out.adj) - len(prev.out.adj) + len(got.in.adj) - len(prev.in.adj)
		alloc := int(after.TotalAlloc - before.TotalAlloc)
		if alloc > rowTables+16*appended {
			t.Fatalf("call %d: %d bytes allocated for %d appended entries, want at most %d", call, alloc, appended, rowTables+16*appended)
		}
		worst = max(worst, alloc)
		prev = got
	}
	t.Logf("%d of 200 calls patched in place, allocating at most %d bytes; the row tables take up to %d", inPlace, worst, rowTables)
	if !prev.Equal(g.Freeze()) {
		t.Fatal("the chain's last snapshot differs from Freeze")
	}
	if inPlace < 150 {
		t.Fatalf("only %d of 200 calls patched in place", inPlace)
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
			b.label[v] = a.Label(Node(v)) // b is unfrozen: its label array is its own
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
