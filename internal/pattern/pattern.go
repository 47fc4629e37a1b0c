// Package pattern implements graph pattern queries via (bounded) simulation
// (Section 2.1 and Section 4 of the paper):
//
//   - Pattern is Qp = (Vp, Ep, fv, fe): a directed graph of labeled query
//     nodes whose edges carry a bound k >= 1 or * (unbounded).
//   - Match computes the unique maximum match of Qp in a data graph G
//     (Lemma 1, [9]): the greatest relation S ⊆ Vp×V such that matched data
//     nodes carry the required label and every pattern edge (u,u') maps to
//     a nonempty path of length within the bound, ending in a match of u'.
//   - Bounded simulation with all bounds 1 is plain graph simulation [12].
//
// Match is an unmodified evaluation algorithm in the sense of the paper: it
// runs identically on G and on the bisimulation-compressed Gr; Expand is
// the post-processing function P that maps a result on Gr back to the
// result on G by substituting class members.
//
// # Refinement by counters
//
// The maximum match is the greatest relation in which v stays in sim(u)
// only while every pattern edge (u,t,k) finds a nonempty path of length
// <= k from v into sim(t). Match computes it with counters that each
// removal updates (Henzinger, Henzinger & Kopke, FOCS 1995, generalised to
// bounds), not with rounds that re-test every edge until nothing changes.
//
// Every pattern node t that is the target of a bounded edge, with K_t the
// largest bound into t, keeps level counters for j < K_t:
//
//	cnt_t[j][v] = |{x ∈ succ(v) : x ∈ sim(t) ∨ cnt_t[j−1][x] > 0}|, cnt_t[−1] ≡ 0
//
// so cnt_t[j][v] > 0 iff v has a nonempty path of length <= j+1 into
// sim(t), and an edge (u,t,k) keeps v in sim(u) iff cnt_t[k−1][v] > 0. All
// edges into t share t's counters. They are built by one bounded reverse
// BFS from sim(t) when the first edge into t is examined.
//
// Only the top level, j = K_t−1, is built from either side (the direction
// choice of direction-optimizing BFS: Beamer, Asanović & Patterson, SC
// 2012). Nothing reads it but the edges (u,t,K_t), at v ∈ sim(u). A push
// scans the in-rows of the level's input — sim(t) when K_t = 1, else the
// nodes first reached one level down — and counts every node; a pull
// scans the out-row of each candidate q ∈ sim(u) and sets cnt_t[K_t−1][q]
// by the formula above, the value a push writes there. The build pulls iff
// Σ_u |sim(u)| over those edges is below the input's size: both are set
// sizes already held, so the choice costs O(1) per target. (Summing the
// rows' lengths instead cost more than it saved when most patterns fail
// after one or two builds.) The lower levels are always pushed and
// complete, since each defines the next level's input. A node that is no
// candidate keeps top count 0 after a pull, and drops still reach it: its
// counter falls below 0 and never returns to 0, so a drop there does
// nothing — the drain acts on a count that reaches exactly 0.
//
// Candidates come from the CSR's label index (graph.CSR.NodesLabeled): each
// pattern node copies its label's group, so only the first Match on a CSR
// reads its label array.
// The edges are examined in ascending order of their target's candidate
// count, ties in pattern-edge order. The cheapest counters are built
// first, and a pattern that fails usually fails before it builds the
// expensive ones. The order cannot change the answer: every removal is
// justified by the current sets, which only shrink, and the drops keep
// every examined bounded edge settled, so any order reaches the same
// greatest fixpoint.
//
// Call x at level j of t while x ∈ sim(t) ∨ cnt_t[j−1][x] > 0. The drop
// rule keeps the counters exact: when x stops being at level j it drops,
// which decrements cnt_t[j] at each of x's predecessors. That happens at
// most once per (t, j, x), on one of two events:
//
//   - x leaves sim(t) while cnt_t[j−1][x] = 0 (always, for j = 0);
//   - cnt_t[j−1][x] reaches 0 while x ∉ sim(t).
//
// Two orderings matter, and each has a regression test:
//
//   - Removing x from sim(t) checks every level on its own. Mid-cascade a
//     lower level can still be positive, its decrements pending, while a
//     higher one has reached 0; stopping at the first positive level loses
//     that drop (TestMatchChecksEveryLevel).
//   - When cnt_t[j][q] reaches 0, q's drop at level j+1 is decided (it
//     drops iff q ∉ sim(t)) before q leaves sim(u) for the edges
//     (u,t,j+1). When u = t that removal is the event that records the
//     drop, and deciding after it counts the drop twice
//     (TestMatchSelfLoopTwoBounds).
//
// Each drop scans one predecessor row and a pull one successor row per
// candidate, so a Match costs O(Σ_t K_t·(|V|+|E|)) rather than rounds ×
// |Ep| × (|V| + k·|E|). An edge with bound * or above
// maxLevel, and every edge into a target past the maxLevels budget, is
// refined by queries.ReverseWithinCSR instead, rerun only while its target
// set has changed; its removals feed the counters like any other. So no
// counter array costs k·|V| for a bound k a client chose.
//
// # Counting without branches
//
// The push of a level, the pull of a top level and the compaction of a
// candidate list do almost nothing per adjacency entry but test a flag the
// data decides: whether the entry is reached first, in sim(t) or counted
// one level down, or still a member. The outcome of such a test is close
// to random, so a branch on it is mispredicted often enough to set the
// loop's speed. These loops therefore add the test's outcome as 0 or 1
// (b2i) instead of branching on it. A push writes every predecessor to the
// frontier and advances the frontier's length only past a first reach,
// and a compaction writes every entry back and advances past a member. A
// pull adds 1 per successor in sim(t) or counted one level down. The
// rows scanned, their order and every count are those of the branching
// loops, and so are the answers and the work counts. A pushed top level
// keeps no frontier, since no level reads one above it. A list as long as
// its set has lost no member since its last walk, and is returned
// unwalked. On the benchmark's 32 patterns this cut a pass's time, Expand
// included, by about 40 % on social16 and 25 % on webcore16
// (EXPERIMENTS.md). The
// drain and run's removal scans keep their branches: rewritten the same
// way, neither was faster in three of four paired passes.
package pattern

import (
	"fmt"
	"math/bits"

	"repro/internal/bisim"
	"repro/internal/graph"
	"repro/internal/queries"
)

// Unbounded is the edge bound "*": the pattern edge maps to a nonempty path
// of arbitrary length.
const Unbounded = queries.Unbounded

// Edge is a pattern edge to node To with bound Bound (a positive length
// cap, or Unbounded).
type Edge struct {
	To    int32
	Bound int
}

// Pattern is a graph pattern query Qp.
type Pattern struct {
	labels []string
	adj    [][]Edge
}

// New returns an empty pattern.
func New() *Pattern { return &Pattern{} }

// AddNode appends a query node carrying the search condition fv = label and
// returns its id.
func (p *Pattern) AddNode(label string) int32 {
	p.labels = append(p.labels, label)
	p.adj = append(p.adj, nil)
	return int32(len(p.labels) - 1)
}

// AddEdge adds a pattern edge (u,u') with the given bound (k >= 1, or
// Unbounded for *). It panics on an invalid bound, matching the paper's
// definition of fe.
func (p *Pattern) AddEdge(u, v int32, bound int) {
	if bound != Unbounded && bound < 1 {
		panic(fmt.Sprintf("pattern: bound must be >= 1 or Unbounded, got %d", bound))
	}
	p.adj[u] = append(p.adj[u], Edge{To: v, Bound: bound})
}

// NumNodes returns |Vp|.
func (p *Pattern) NumNodes() int { return len(p.labels) }

// NumEdges returns |Ep|.
func (p *Pattern) NumEdges() int {
	n := 0
	for _, es := range p.adj {
		n += len(es)
	}
	return n
}

// Label returns fv(u).
func (p *Pattern) Label(u int32) string { return p.labels[u] }

// EdgesFrom returns the pattern edges leaving u.
func (p *Pattern) EdgesFrom(u int32) []Edge { return p.adj[u] }

// Result is the answer to a pattern query: the maximum match as one
// sorted node list per pattern node, or no-match.
type Result struct {
	// Sets[u] lists the data nodes matching pattern node u. Valid only
	// when OK.
	Sets [][]graph.Node
	// OK reports whether Qp matches the graph (every pattern node has at
	// least one match). When false the answer is ∅ per the paper.
	OK bool
}

// Size returns the number of pairs in the match relation (0 when no match).
func (r *Result) Size() int {
	if !r.OK {
		return 0
	}
	n := 0
	for _, s := range r.Sets {
		n += len(s)
	}
	return n
}

// Match computes the unique maximum match of p in g: start from the label
// candidates and refine them by counters (package doc) down to the
// greatest fixpoint. Boolean pattern queries use Match(...).OK.
func Match(g *graph.Graph, p *Pattern) *Result { return MatchCSR(g.Freeze(), p) }

// MatchCSR is Match over a frozen CSR snapshot. Freeze is O(1) (it hands
// the graph's row tables over), so Match simply freezes and delegates;
// callers holding a snapshot — a store's epoch — call MatchCSR on it. The
// first MatchCSR on a CSR builds its label index, O(|V|); later ones pay
// for the candidates they copy and the counters they build, with their
// np·|V| membership flags and their counters taken from a pool.
func MatchCSR(c *graph.CSR, p *Pattern) *Result {
	r, _ := matchCounted(c, p)
	return r
}

// matchCounted is MatchCSR that also returns the work its refinement did.
func matchCounted(c *graph.CSR, p *Pattern) (*Result, work) {
	n := c.NumNodes()
	sc := scratches.Get().(*scratch)
	defer sc.release(n)
	s, ok := candidates(c, p, sc.flags(p.NumNodes()*n))
	defer s.unmark()
	if !ok {
		return &Result{OK: false}, work{}
	}
	ok, w := refine(c, p, s, sc, fewerRows)
	if !ok {
		return &Result{OK: false}, w
	}
	return s.result(), w
}

// Expand is the post-processing function P of the pattern preserving
// compression <R,F,P>: given the answer of Qp on Gr it produces the answer
// on G by replacing every class node with its members. Each set's members
// are marked in a |V|-bit bitmap and read back, ascending, by one sweep
// over the words they touched: O(out + |V|/64) per set with no sort, linear
// in the size of the output (Theorem 4) up to the sweep. For Boolean
// queries it is unnecessary — use the result's OK directly.
func Expand(r *Result, c *bisim.Compressed) *Result {
	if !r.OK {
		return &Result{OK: false}
	}
	out := &Result{OK: true, Sets: make([][]graph.Node, len(r.Sets))}
	marks := make([]uint64, (len(c.ClassMap())+63)/64)
	for u, classes := range r.Sets {
		size, lo, hi := 0, len(marks), 0
		for _, cls := range classes {
			ms := c.Members[cls]
			size += len(ms)
			for _, v := range ms {
				w := int(v >> 6)
				marks[w] |= 1 << (v & 63)
				lo, hi = min(lo, w), max(hi, w+1)
			}
		}
		set := make([]graph.Node, 0, size)
		for w := lo; w < hi; w++ {
			for b := marks[w]; b != 0; b &= b - 1 {
				set = append(set, graph.Node(w<<6|bits.TrailingZeros64(b)))
			}
			marks[w] = 0
		}
		out.Sets[u] = set
	}
	return out
}
