package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// model is a graph's labels and edge set kept apart from any Graph, so that
// a snapshot can be held to a bulk build of what it should hold.
type model struct {
	label []Label
	edges map[[2]Node]bool
}

func modelOf(g *Graph) *model {
	m := &model{label: make([]Label, g.NumNodes()), edges: make(map[[2]Node]bool)}
	for v := range m.label {
		m.label[v] = g.Label(Node(v))
	}
	g.Edges(func(u, v Node) bool {
		m.edges[[2]Node{u, v}] = true
		return true
	})
	return m
}

func (m *model) clone() *model {
	c := &model{label: slices.Clone(m.label), edges: make(map[[2]Node]bool, len(m.edges))}
	for e := range m.edges {
		c.edges[e] = true
	}
	return c
}

func (m *model) apply(ups []Update) {
	for _, up := range ups {
		if up.Insert {
			m.edges[[2]Node{up.From, up.To}] = true
		} else {
			delete(m.edges, [2]Node{up.From, up.To})
		}
	}
}

// build freezes a bulk build of the model.
func (m *model) build(labels *Labels) *CSR {
	rows := make([][]Node, len(m.label))
	for e := range m.edges {
		rows[e[0]] = append(rows[e[0]], e[1])
	}
	for _, r := range rows {
		slices.Sort(r)
	}
	return BuildFromSortedAdj(labels, slices.Clone(m.label), rows).Freeze()
}

// FuzzGraphFreeze runs a graph through a sequence of writes, freezes, thaws
// of any earlier snapshot and clones decoded from bytes. After every step
// the graph is valid and equals the model it mirrors, and every snapshot
// frozen so far still equals a bulk build of the edge set it had when it was
// frozen: a write, a pack or a second thaw never reaches below a frozen end.
func FuzzGraphFreeze(f *testing.F) {
	f.Add([]byte{2, 0, 2, 1, 0, 0, 1, 3, 0, 1, 0, 0, 0, 1, 3})                // write, freeze, write again
	f.Add([]byte{2, 0, 2, 0, 0, 0, 1, 3, 4, 0, 0, 1, 0, 3, 4, 0, 0, 1, 1, 3}) // two thaws of one snapshot both write and freeze
	f.Add([]byte{2, 1, 0, 0, 0, 3, 6, 0, 2, 3, 5, 0, 0, 0, 3})                // write after a freeze, then clone
	f.Add([]byte{2, 0, 2, 0, 2, 0, 0, 0, 1, 0, 0, 2, 3, 1, 0, 1, 3})          // delete from a row below the seal
	long := []byte{2, 0, 2, 1, 2, 2, 2, 0}
	for i := 0; i < 120; i++ { // enough writes between freezes to pack
		long = append(long, byte(i%2), byte(i*5%4), byte(i*3%4))
		if i%9 == 8 {
			long = append(long, 3)
		}
		if i%31 == 30 {
			long = append(long, 4, byte(i))
		}
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 600 {
			data = data[:600]
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		g := New(nil)
		for l := 0; l < 3; l++ {
			g.Labels().Intern(string(rune('a' + l)))
		}
		mirror := modelOf(g)
		type frozen struct {
			c, want *CSR
			at      *model
		}
		var snaps []frozen
		for len(data) > 0 {
			n := g.NumNodes()
			switch op := next() % 6; {
			case op == 2 || n == 0:
				l := Label(next() % 3)
				g.AddNode(l)
				mirror.label = append(mirror.label, l)
			case op < 2:
				up := Update{From: Node(int(next()) % n), To: Node(int(next()) % n), Insert: op == 0}
				g.Apply([]Update{up})
				mirror.apply([]Update{up})
			case op == 3:
				snaps = append(snaps, frozen{g.Freeze(), mirror.build(g.Labels()), mirror.clone()})
			case op == 4 && len(snaps) > 0:
				s := snaps[int(next())%len(snaps)]
				g, mirror = s.c.Thaw(), s.at.clone()
			case op == 5:
				g = g.Clone()
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if want := mirror.build(g.Labels()); !g.Clone().Freeze().Equal(want) {
				t.Fatal("the graph differs from its model")
			}
			for i, s := range snaps {
				if !s.c.Equal(s.want) {
					t.Fatalf("snapshot %d changed after it was frozen", i)
				}
			}
		}
	})
}

// TestFreezeMatchesBulkBuild freezes a graph after every round of writes,
// a hub row among them hit again and again, so rows are copied out of
// frozen snapshots, edited in place and packed. Each snapshot equals a bulk
// build of the graph's edges at that round, then and after all later rounds.
func TestFreezeMatchesBulkBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(nil)
	const n = 300
	for v := 0; v < n; v++ {
		g.AddNode(Label(v % 5))
	}
	for i := 0; i < 1500; i++ {
		g.AddEdge(Node(rng.Intn(n)), Node(rng.Intn(n)))
	}
	mirror := modelOf(g)
	var chain []snapshot
	packs := 0
	for round := 0; round < 200; round++ {
		var ups []Update
		for k := rng.Intn(40); k >= 0; k-- {
			u := Node(rng.Intn(n))
			if rng.Intn(4) == 0 {
				u = 0 // a hub row, hit again and again
			}
			ups = append(ups, Update{From: u, To: Node(rng.Intn(n)), Insert: rng.Intn(2) == 0})
		}
		ar := g.out.ar
		g.Apply(ups)
		mirror.apply(ups)
		if g.out.ar != ar {
			packs++
		}
		got := g.Freeze()
		if want := mirror.build(g.Labels()); !got.Equal(want) {
			t.Fatalf("round %d: the snapshot differs from a bulk build", round)
		}
		chain = append(chain, snapshot{got, mirror.build(g.Labels())})
	}
	for i, s := range chain {
		if !s.intact() {
			t.Fatalf("snapshot %d changed after later rounds", i)
		}
	}
	if packs == 0 {
		t.Fatal("no round packed the successor arena")
	}
}

// TestReadersWhileWriting has readers traverse epoch k's CSR, every row of
// both sides, while the writer keeps writing the graph it was frozen from,
// freezing epochs k+1… into the same arena and packing when due. Under
// -race the detector checks that a write past a CSR's end never touches an
// entry its readers read; each pass also compares with a compact clone.
func TestReadersWhileWriting(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 1000
	g := randomGraph(rng, n, 4000, 3)
	shared, packed := 0, 0
	for k := 0; k < 12; k++ {
		pinned := snapshot{g.Freeze(), g.Clone().Freeze()}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if !pinned.intact() {
						t.Errorf("epoch %d changed under its reader", k)
						return
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		for e := 0; e < 6; e++ {
			for i := 0; i < 10; i++ {
				g.Apply([]Update{{From: Node(rng.Intn(n)), To: Node(rng.Intn(n)), Insert: rng.Intn(2) == 0}})
			}
			if g.Freeze().out.ar == pinned.c.out.ar {
				shared++
			} else {
				packed++
			}
		}
		close(stop)
		wg.Wait()
	}
	if shared == 0 || packed == 0 {
		t.Fatalf("%d epochs frozen into a pinned epoch's arena, %d packed: want both", shared, packed)
	}
}
