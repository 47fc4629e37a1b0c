package incbisim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bisim"
	"repro/internal/graph"
)

// checkLevels verifies what the levels promise between batches: every
// level's counts, free list and table describe its node → class array, a
// known representative is a member, each level refines the one below, and
// the top is the first level with as many classes as the one below it.
func checkLevels(t *testing.T, m *Maintainer) {
	t.Helper()
	if m.fallback {
		if len(m.levels) != 1 {
			t.Fatalf("fallback keeps %d levels", len(m.levels))
		}
		return
	}
	g := m.Graph()
	below := make([]int32, g.NumNodes())
	for v := range below {
		below[v] = g.Label(graph.Node(v))
	}
	belowLive := m.labelClasses
	for k := range m.levels {
		lv := &m.levels[k]
		count := make([]int32, len(lv.cnt))
		up := map[int32]int32{} // class here -> class below
		for v, c := range lv.cls {
			count[c]++
			if b, seen := up[c]; seen && b != below[v] {
				t.Fatalf("level %d: class %d spans classes %d and %d of the level below", k, c, b, below[v])
			}
			up[c] = below[v]
		}
		live, free := 0, map[int32]bool{}
		for _, id := range lv.free {
			if free[id] || count[id] != 0 {
				t.Fatalf("level %d: free id %d listed twice or in use", k, id)
			}
			free[id] = true
		}
		inTable := map[int32]bool{}
		for _, s := range lv.slots {
			if s != 0 {
				if inTable[s-1] {
					t.Fatalf("level %d: class %d has two slots", k, s-1)
				}
				inTable[s-1] = true
			}
		}
		for id, c := range lv.cnt {
			if c != count[id] {
				t.Fatalf("level %d: class %d counts %d members, has %d", k, id, c, count[id])
			}
			if c == 0 {
				if !free[int32(id)] || inTable[int32(id)] {
					t.Fatalf("level %d: empty id %d is not free or still in the table", k, id)
				}
				continue
			}
			live++
			if !inTable[int32(id)] {
				t.Fatalf("level %d: class %d has no slot", k, id)
			}
			if r := lv.rep[id]; r < repUnknown || r >= 0 && lv.cls[r] != int32(id) {
				t.Fatalf("level %d: class %d has representative %d", k, id, r)
			}
			sig := m.sign(m.below(k), graph.Node(pickMember(lv.cls, int32(id))), nil)
			if h := m.hashOf(sig); h != lv.hash[id] {
				t.Fatalf("level %d: class %d keeps hash %x, its members sign %x", k, id, lv.hash[id], h)
			}
		}
		if live != lv.live {
			t.Fatalf("level %d: live is %d, %d classes have members", k, lv.live, live)
		}
		if stable, top := live == belowLive, k == len(m.levels)-1; stable != top {
			t.Fatalf("level %d of %d has %d classes over %d", k, len(m.levels), live, belowLive)
		}
		below, belowLive = lv.cls, live
	}
}

func pickMember(cls []int32, id int32) int {
	for v, c := range cls {
		if c == id {
			return v
		}
	}
	return -1
}

// stepper drives a maintainer and a mirror of its graph through single
// batches, checking after each that the maintained partition is the batch
// one, the levels are sound and the change log covers the moves.
type stepper struct {
	t      *testing.T
	m      *Maintainer
	mirror *graph.Graph
	log    *logMirror
	round  int
}

func newStepper(t *testing.T, g *graph.Graph, constHash bool) *stepper {
	mirror := g.Clone()
	m := newMaintainer(g, nil, testHooks{constHash: constHash})
	if blocks, nodes := m.logBlocks, m.logNodes; len(blocks)+len(nodes) != 0 {
		t.Fatalf("a new maintainer logs %d blocks and %d nodes", len(blocks), len(nodes))
	}
	s := &stepper{t: t, m: m, mirror: mirror, log: mirrorLog(m)}
	s.check()
	return s
}

func (s *stepper) check() {
	s.t.Helper()
	if want := bisim.Compress(s.mirror); !slices.Equal(s.m.Partition().BlockOf, bisim.PartitionOf(want.ClassMap()).BlockOf) {
		s.t.Fatalf("round %d: maintained partition %v, batch compression %v\nedges %v",
			s.round, s.m.Partition().Blocks, want.Members, s.mirror.EdgeList())
	}
	checkLevels(s.t, s.m)
	s.log.check(s.t, s.m, s.round)
	checkView(s.t, s.m, s.mirror, s.round)
}

func (s *stepper) apply(batch ...graph.Update) Stats {
	s.t.Helper()
	s.round++
	s.mirror.Apply(batch)
	st := s.m.Apply(batch)
	s.check()
	return st
}

func (s *stepper) same(u, v graph.Node) bool { return s.m.top().cls[u] == s.m.top().cls[v] }

// labeled builds a graph with one node per label name and the given edges.
func labeled(labels []string, edges [][2]graph.Node) *graph.Graph {
	g := graph.New(nil)
	for _, l := range labels {
		g.AddNodeNamed(l)
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// TestOverStartsWithAnEmptyLog: the change log is of batches, and
// construction is not one — on the levelled path and past the depth cap.
func TestOverStartsWithAnEmptyLog(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	chain := graph.New(nil)
	for i := 0; i < maxLevels+5; i++ {
		chain.AddNodeNamed("A")
		if i > 0 {
			chain.AddEdge(graph.Node(i-1), graph.Node(i))
		}
	}
	for _, g := range []*graph.Graph{randomLabeled(rng, 80, 200, 3), chain} {
		s := newStepper(t, g, false) // fails on a log that is not empty
		if deep := g == chain; (s.m.Levels() == 0) != deep {
			t.Fatalf("%d levels kept for a graph of %d nodes and %d edges", s.m.Levels(), g.NumNodes(), g.NumEdges())
		}
	}
}

// TestMirrorCyclesMergeAndSplit is the case a warm start from the previous
// partition misses: two label-identical cycles told apart by one edge must
// merge pairwise when it goes, yet under the old partition no two blocks
// have equal signatures until another pair has merged. The levels recompute
// each partition from the one below, so the merge falls out — with the
// cycles on their own, hanging off a shared hub, and inside one component
// with it.
func TestMirrorCyclesMergeAndSplit(t *testing.T) {
	// Nodes 0-2 and 3-5 are P→Q→R cycles, 6 is the sink that marks the
	// first, 7 the hub.
	labels := []string{"P", "Q", "R", "P", "Q", "R", "S", "H"}
	cycles := [][2]graph.Node{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}
	for name, extra := range map[string][][2]graph.Node{
		"apart":   nil,
		"hub":     {{7, 0}, {7, 3}},
		"one scc": {{7, 0}, {7, 3}, {2, 7}, {5, 7}},
	} {
		for _, constHash := range []bool{false, true} {
			s := newStepper(t, labeled(labels, append(append([][2]graph.Node{{0, 6}}, cycles...), extra...)), constHash)
			for round := 0; round < 3; round++ {
				for i := graph.Node(0); i < 3; i++ {
					if s.same(i, i+3) {
						t.Fatalf("%s: nodes %d and %d share a block while the marking edge is there", name, i, i+3)
					}
				}
				s.apply(graph.Deletion(0, 6))
				for i := graph.Node(0); i < 3; i++ {
					if !s.same(i, i+3) {
						t.Fatalf("%s: nodes %d and %d did not merge", name, i, i+3)
					}
				}
				s.apply(graph.Insertion(0, 6))
			}
		}
	}
}

// TestDepthGrowsShrinksAndCrossesTheCap walks a same-label chain — the
// graph whose refinement is as deep as it is long — up past the stored
// levels one edge at a time, past the cap, and back down: levels are built
// and dropped as the depth moves, past the cap the maintainer refines from
// the seed and says so, and once the depth fits again it returns to the
// levels. Blocks keep being exact and the change log keeps covering them
// throughout.
func TestDepthGrowsShrinksAndCrossesTheCap(t *testing.T) {
	const n = maxLevels + 12
	g := graph.New(nil)
	for i := 0; i < n; i++ {
		g.AddNodeNamed("A")
	}
	s := newStepper(t, g, false)
	edge := func(i int) (graph.Node, graph.Node) { return graph.Node(i), graph.Node(i + 1) }

	var fallbacks, rebuilds int
	for i := n - 2; i >= 0; i-- { // the chain grows at its head: one level deeper each time
		st := s.apply(graph.Insertion(edge(i)))
		fallbacks += st.Fallbacks
		rebuilds += st.LevelRebuilds
		if depth := n - i; depth <= maxLevels {
			if s.m.Levels() != depth+1 || st.Fallbacks != 0 {
				t.Fatalf("chain of %d: %+v", depth, st)
			}
		} else if s.m.Levels() != 0 || st.Fallbacks != 1 {
			t.Fatalf("chain of %d, past the cap: %+v", depth, st)
		}
	}
	if fallbacks == 0 || rebuilds == 0 {
		t.Fatalf("%d fallbacks, %d level rebuilds", fallbacks, rebuilds)
	}
	// Cut the chain in the middle: two short chains, depth back under the cap.
	// The maintainer notices at its next retry.
	s.apply(graph.Deletion(edge(n / 2)))
	for i := 0; s.m.fallback; i++ {
		if i > 2*fallbackRetry {
			t.Fatal("the maintainer never returned to the levels")
		}
		// Toggle an edge off the chains' heads so that every batch is effective.
		s.apply(graph.Update{From: 0, To: graph.Node(n - 1), Insert: i%2 == 0})
	}
	if s.m.Levels() < 2 {
		t.Fatalf("returned to %d levels", s.m.Levels())
	}
	// And shrink: deleting from the head pops a level at a time.
	for i := 0; i < n/2-1; i++ {
		before := len(s.m.levels)
		st := s.apply(graph.Deletion(edge(i)))
		if st.Fallbacks != 0 || len(s.m.levels) > before {
			t.Fatalf("deleting edge %d: %+v, %d levels after %d", i, st, len(s.m.levels), before)
		}
	}
}

// TestTailedCycleDepthJumps toggles the one edge that tells the nodes of a
// long same-label cycle apart: with it the refinement is as deep as the
// cycle, without it two levels deep, so a single update builds or drops
// all the levels between — and past the cap goes to the seed and back.
func TestTailedCycleDepthJumps(t *testing.T) {
	for _, n := range []int{maxLevels / 2, maxLevels + 8} {
		labels := make([]string, n+1)
		var edges [][2]graph.Node
		for i := 0; i < n; i++ {
			labels[i] = "A"
			edges = append(edges, [2]graph.Node{graph.Node(i), graph.Node((i + 1) % n)})
		}
		labels[n] = "B"
		s := newStepper(t, labeled(labels, edges), false)
		fallbacks := 0
		for round := 0; round < 2*fallbackRetry+2; round++ {
			st := s.apply(graph.Update{From: 0, To: graph.Node(n), Insert: round%2 == 0})
			fallbacks += st.Fallbacks
			if n < maxLevels && st.Fallbacks != 0 {
				t.Fatalf("cycle of %d fell back: %+v", n, st)
			}
		}
		if n > maxLevels && fallbacks == 0 {
			t.Fatalf("cycle of %d never fell back", n)
		}
	}
}

// TestLevelsUnderChurn runs random mixed batches over a cyclic graph with
// real and with constant hashes — every lookup then lands in one probe run
// and classes are told apart only by re-signing representatives — and
// checks the levels after each. Class ids must be recycled at every level:
// no level may have handed out more ids than it ever had classes and nodes
// in flight.
func TestLevelsUnderChurn(t *testing.T) {
	for _, constHash := range []bool{false, true} {
		rng := rand.New(rand.NewSource(17))
		const n = 120
		s := newStepper(t, randomLabeled(rng, n, 2*n, 3), constHash)
		reused := false
		for round := 0; round < 150; round++ {
			before := make([]int, len(s.m.levels))
			for k := range s.m.levels {
				before[k] = len(s.m.levels[k].cnt)
			}
			st := s.apply(randomBatch(rng, s.mirror, 1+rng.Intn(8))...)
			for k := range s.m.levels {
				lv := &s.m.levels[k]
				if len(lv.cnt) > 2*n {
					t.Fatalf("round %d: level %d has handed out %d ids for %d nodes", round, k, len(lv.cnt), n)
				}
				if k < len(s.m.levels)-1 && k < len(before) && st.LevelRebuilds == 0 &&
					st.DirtyNodes > 0 && len(lv.cnt) == before[k] && len(lv.free) > 0 {
					reused = true
				}
			}
		}
		if !reused {
			t.Fatal("no inner level ever held a free id to recycle")
		}
	}
}

// FuzzIncPCM decodes a small labeled graph and an update list from bytes,
// applies the updates in batches of varying size, and checks after each
// that the maintained partition equals RefineNaive's, that the change log
// covers every move and that the view patched from it is batch's quotient.
func FuzzIncPCM(f *testing.F) {
	f.Add(uint8(7), uint8(1), []byte{0, 6, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3}, []byte{0, 6, 0, 1, 0, 6, 1, 1}) // mirror cycles
	f.Add(uint8(40), uint8(1), []byte{}, []byte{38, 39, 1, 1, 37, 38, 1, 1, 36, 37, 1, 3})                      // a chain from nothing
	f.Add(uint8(5), uint8(2), []byte{0, 1, 1, 0, 2, 3}, []byte{0, 1, 0, 2, 1, 0, 0, 1, 0, 1, 1, 1})
	f.Add(uint8(1), uint8(1), []byte{0, 0}, []byte{0, 0, 0, 1})
	f.Add(uint8(0), uint8(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, n, labels uint8, edges, ups []byte) {
		if n == 0 {
			n = 1
		}
		n = 1 + (n-1)%48
		g := graph.New(nil)
		for v := 0; v < int(n); v++ {
			g.AddNodeNamed(string(rune('A' + v%(1+int(labels)%4))))
		}
		node := func(b byte) graph.Node { return graph.Node(int(b) % int(n)) }
		for i := 0; i+1 < len(edges); i += 2 {
			g.AddEdge(node(edges[i]), node(edges[i+1]))
		}
		m := New(g)
		lm := mirrorLog(m)
		// Each update carries the size of the batch it closes in its high bits.
		var batch []graph.Update
		for round := 0; len(ups) >= 4; ups = ups[4:] {
			batch = append(batch, graph.Update{From: node(ups[0]), To: node(ups[1]), Insert: ups[2]&1 == 1})
			if len(batch) <= int(ups[3]%6) && len(ups) >= 8 {
				continue
			}
			m.Apply(batch)
			batch = batch[:0]
			if want := bisim.RefineNaive(m.Graph()); !slices.Equal(m.Partition().BlockOf, want.BlockOf) {
				t.Fatalf("round %d: maintained %v, RefineNaive %v\nedges %v", round, m.Partition().Blocks, want.Blocks, m.Graph().EdgeList())
			}
			checkLevels(t, m)
			lm.check(t, m, round)
			checkView(t, m, m.Graph(), round)
			round++
		}
	})
}
