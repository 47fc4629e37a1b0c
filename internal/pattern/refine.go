package pattern

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/queries"
)

const (
	// maxLevel is the largest bound the counters serve. A larger finite
	// bound goes through ReverseWithinCSR like *, so a bound a client picks
	// (the wire accepts up to 2^20) never costs bound·|V| counters.
	maxLevel = 8
	// maxLevels caps the counter levels one refinement holds over all its
	// targets; targets past it also go through ReverseWithinCSR. It keeps a
	// pattern with many nodes from costing np·maxLevel·|V| counters.
	maxLevels = 64
	// maxPooledNodes caps, in pattern nodes, the membership flags a
	// scratch keeps in the pool: a pattern the wire admits (at most 64
	// nodes) reuses them, and a larger one does not leave np·|V| flags
	// behind.
	maxPooledNodes = 64
)

// sets is a candidate relation sim ⊆ Vp×V under refinement: in[u][v]
// reports v ∈ sim(u), size[u] = |sim(u)|, and list[u] holds sim(u) in
// increasing order plus nodes removed since the list was last walked.
type sets struct {
	in   [][]bool
	list [][]graph.Node
	size []int
}

// candidates copies every pattern node's label group out of c's label
// index and marks it in in, np·|V| flags that are all false on entry (u's
// flags are in[u·|V|, (u+1)·|V|)). It returns false when some pattern node
// has no candidate; the flags already marked stay listed in s.list.
func candidates(c *graph.CSR, p *Pattern, in []bool) (s *sets, ok bool) {
	np, n := p.NumNodes(), c.NumNodes()
	s = &sets{in: make([][]bool, np), list: make([][]graph.Node, np), size: make([]int, np)}
	for u := range np {
		id, known := c.Labels().Lookup(p.labels[u])
		if !known {
			return s, false
		}
		group := c.NodesLabeled(id)
		if len(group) == 0 {
			return s, false
		}
		// Lists are compacted in place, so each pattern node gets its own
		// copy of the shared group.
		s.list[u] = append([]graph.Node(nil), group...)
		s.in[u] = in[u*n : (u+1)*n]
		for _, v := range group {
			s.in[u][v] = true
		}
		s.size[u] = len(group)
	}
	return s, true
}

// unmark clears every membership flag s still holds, in time linear in its
// lists: a flag is set only for a node its list holds.
func (s *sets) unmark() {
	for u, l := range s.list {
		for _, v := range l {
			s.in[u][v] = false
		}
	}
}

// live compacts list[u] to sim(u)'s current members and returns it. A
// list as long as the set holds no removed node, so it is returned as it
// is; otherwise every entry is written back and kept by a count (package
// doc, "Counting without branches").
func (s *sets) live(u int32) []graph.Node {
	l := s.list[u]
	if len(l) == s.size[u] {
		return l
	}
	in, m := s.in[u], 0
	for _, v := range l {
		l[m] = v
		m += b2i(in[v])
	}
	s.list[u] = l[:m]
	return l[:m]
}

// b2i is 1 for true and 0 for false. The compiler lowers it to a flag
// move, so a loop that adds it instead of testing has no branch on the
// data.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// result returns the relation as a Result. Its sets are the compacted
// lists themselves: a caller that keeps refining s must copy them.
func (s *sets) result() *Result {
	res := &Result{OK: true, Sets: make([][]graph.Node, len(s.list))}
	for u := range s.list {
		res.Sets[u] = s.live(int32(u))
	}
	return res
}

// drop is a pending counter decrement: x stopped being at level j of
// target t, so cnt_t[j] falls by one at each of x's predecessors.
type drop struct {
	t, j int32
	x    graph.Node
}

// farEdge is a pattern edge refined by ReverseWithinCSR: bound * or above
// maxLevel, or a target past the level budget. seen is the target's
// removal count when the edge was last run.
type farEdge struct {
	u, t  int32
	bound int
	seen  int
}

// edgeRef is pattern edge e leaving u, in the refinement's examination
// order.
type edgeRef struct {
	u int32
	e Edge
}

// scratch is the pooled memory of one match: its membership flags and its
// refinement's counters, queue and edge order.
type scratch struct {
	in           []bool
	cnt          []int32
	stack        []drop
	front, reach []graph.Node
	order        []edgeRef
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// flags returns k membership flags, all false. Callers clear what they set
// (sets.unmark) before release puts the scratch back.
func (sc *scratch) flags(k int) []bool {
	if cap(sc.in) < k {
		sc.in = make([]bool, k)
	}
	return sc.in[:k]
}

// release returns sc to the pool. A flag buffer beyond maxPooledNodes·n is
// dropped, not pooled.
func (sc *scratch) release(n int) {
	if cap(sc.in) > maxPooledNodes*n {
		sc.in = nil
	}
	sc.stack = sc.stack[:0]
	scratches.Put(sc)
}

// direction is how build counts a target's top level: from the side that
// scans fewer rows, or, for the tests that hold the two against each
// other, always one way.
type direction uint8

const (
	fewerRows direction = iota
	push
	pull
)

// work is what one refinement scanned: predecessor rows (counter builds
// and drops), adjacency entries in both directions (the in-rows a build
// pushes and a drop scans, the out-rows a pull reads), and how many
// targets had their counters built and how many of those pulled their top
// level.
type work struct {
	rows, entries int
	built, pulled int
}

// refiner runs one refinement; see the package doc for the counters and
// the drop rule.
type refiner struct {
	c      *graph.CSR
	p      *Pattern
	s      *sets
	n      int
	dir    direction
	lv     []int       // lv[t]: t's counter levels K_t, 0 if t has none
	cnt    [][]int32   // cnt[t]: level j at [j·n, (j+1)·n); nil until built
	up     [][][]int32 // up[t][j]: sources u of the edges (u, t, j+1)
	ver    []int       // ver[t]: removals from sim(t) so far
	far    []farEdge
	sc     *scratch
	used   int // counters of sc.cnt handed out
	work   work
	failed bool
}

// refine shrinks s in place to the greatest bounded-simulation relation of
// p in c contained in it, and reports whether every pattern node kept a
// match; on false s is left partly refined. Any superset of the maximum
// match converges to it: every removal is justified by the current sets,
// which only shrink (this is what IncMatcher's deletion path relies on).
// dir says how each target's top counter level is built; the answer does
// not depend on it. sc lends the counters and the queue; its stack may
// hold drops on return.
func refine(c *graph.CSR, p *Pattern, s *sets, sc *scratch, dir direction) (ok bool, w work) {
	r := newRefiner(c, p, s, sc, dir)
	ok = r.run()
	return ok, r.work
}

// newRefiner sizes the counter levels of every bounded target of p and
// lends them from sc; none is built yet.
func newRefiner(c *graph.CSR, p *Pattern, s *sets, sc *scratch, dir direction) *refiner {
	np, n := p.NumNodes(), c.NumNodes()
	r := &refiner{c: c, p: p, s: s, n: n, dir: dir, lv: make([]int, np), cnt: make([][]int32, np),
		up: make([][][]int32, np), ver: make([]int, np), sc: sc}
	for _, es := range p.adj {
		for _, e := range es {
			if e.Bound != Unbounded && e.Bound <= maxLevel {
				r.lv[e.To] = max(r.lv[e.To], e.Bound)
			}
		}
	}
	levels := 0
	for t, k := range r.lv {
		if levels+k > maxLevels {
			r.lv[t] = 0
			continue
		}
		levels += k
		if k > 0 {
			r.up[t] = make([][]int32, k)
		}
	}
	if cap(r.sc.cnt) < levels*n {
		r.sc.cnt = make([]int32, levels*n)
	}
	r.sc.cnt = r.sc.cnt[:levels*n]
	for u, es := range p.adj {
		for _, e := range es {
			if e.Bound != Unbounded && e.Bound <= r.lv[e.To] {
				r.up[e.To][e.Bound-1] = append(r.up[e.To][e.Bound-1], int32(u))
			}
		}
	}
	return r
}

// run examines the edges cheapest target first (package doc), building each
// target's counters on first use, and settles every cascade before the
// next edge.
func (r *refiner) run() bool {
	s, sc := r.s, r.sc
	order := sc.order[:0]
	for u, es := range r.p.adj {
		for _, e := range es {
			order = append(order, edgeRef{u: int32(u), e: e})
		}
	}
	slices.SortStableFunc(order, func(a, b edgeRef) int { return cmp.Compare(s.size[a.e.To], s.size[b.e.To]) })
	sc.order = order
	for _, o := range order {
		u, e := o.u, o.e
		if e.Bound != Unbounded && e.Bound <= r.lv[e.To] {
			if r.cnt[e.To] == nil {
				r.build(e.To)
			}
			lvl := r.level(e.To, e.Bound-1)
			for _, v := range s.live(u) {
				if lvl[v] == 0 {
					r.remove(u, v)
				}
			}
		} else {
			r.far = append(r.far, farEdge{u: u, t: e.To, bound: e.Bound})
			r.runFar(&r.far[len(r.far)-1])
		}
		if !r.drain() {
			return false
		}
	}
	// The counters keep every bounded edge settled; the far edges are rerun
	// only while their target sets still change.
	for changed := true; changed; {
		changed = false
		for i := range r.far {
			if f := &r.far[i]; r.ver[f.t] != f.seen {
				changed = true
				r.runFar(f)
				if !r.drain() {
					return false
				}
			}
		}
	}
	return true
}

// level returns cnt_t[j].
func (r *refiner) level(t int32, j int) []int32 {
	return r.cnt[t][j*r.n : (j+1)*r.n]
}

// build computes t's counters by one bounded reverse BFS from sim(t):
// level 0 counts successors in sim(t), and level j+1 is level j plus the
// in-rows of the nodes first reached at level j (those not in sim(t) whose
// level-j count just left 0). The top level, which only the candidates of
// the edges (u, t, K_t) read, is pushed that way or pulled at those
// candidates, whichever scans fewer rows (package doc); a pushed top level
// keeps no frontier, since no level reads one above it.
func (r *refiner) build(t int32) {
	k, in := r.lv[t], r.s.in[t]
	r.cnt[t] = r.sc.cnt[r.used : r.used+k*r.n]
	r.used += k * r.n
	clear(r.cnt[t])
	r.work.built++
	// src is the level's input: sim(t) at level 0, then the nodes first
	// reached one level down, held in front while reach takes the next.
	src, front, reach := r.s.live(t), r.sc.front, r.sc.reach
	var prev []int32
	for j := range k {
		lvl := r.level(t, j)
		top := j == k-1
		if top && r.pulls(t, len(src)) {
			r.pull(t, lvl, prev)
			break
		}
		copy(lvl, prev)
		r.work.rows += len(src)
		if top {
			for _, x := range src {
				preds := r.c.Predecessors(x)
				r.work.entries += len(preds)
				for _, q := range preds {
					lvl[q]++
				}
			}
			break
		}
		reach = r.push(src, lvl, in, reach)
		prev, src = lvl, reach
		front, reach = reach, front
	}
	r.sc.front, r.sc.reach = front[:0], reach[:0]
}

// push adds the in-rows of src to lvl and returns, in next's storage, the
// nodes it reached first: those not in in whose count left 0. Every
// predecessor is written to the frontier, and the frontier's length
// advances only past a first reach, so the loop has no branch on the data.
// No node is reached twice, so the frontier needs the level's entries or
// |V|+1 slots, whichever is fewer; it grows once, before the scan.
func (r *refiner) push(src []graph.Node, lvl []int32, in []bool, next []graph.Node) []graph.Node {
	entries := 0
	for _, x := range src {
		entries += len(r.c.Predecessors(x))
	}
	r.work.entries += entries
	next = slices.Grow(next[:0], min(entries, r.n+1))
	next = next[:cap(next)]
	m := 0
	for _, x := range src {
		for _, q := range r.c.Predecessors(x) {
			next[m] = q
			m += b2i(lvl[q] == 0) & b2i(!in[q])
			lvl[q]++
		}
	}
	return next[:m]
}

// pulls reports whether t's top level is pulled: when the candidates that
// read it are fewer than the in-rows a push would scan. Both sides are set
// sizes already held, so the choice costs O(|up|).
func (r *refiner) pulls(t int32, rows int) bool {
	switch r.dir {
	case push:
		return false
	case pull:
		return true
	}
	cands := 0
	for _, u := range r.up[t][r.lv[t]-1] {
		cands += r.s.size[u]
	}
	return cands < rows
}

// pull sets t's top level at each candidate q ∈ sim(u) of the edges
// (u, t, K_t) to its successors in sim(t) or, above level 0, with a positive
// count one level down (prev): the value a push writes there. Every other
// node keeps 0, which its drops take below 0 (drain).
func (r *refiner) pull(t int32, lvl, prev []int32) {
	in := r.s.in[t]
	r.work.pulled++
	for _, u := range r.up[t][r.lv[t]-1] {
		for _, q := range r.s.live(u) {
			succ := r.c.Successors(q)
			r.work.entries += len(succ)
			c := 0
			if prev == nil {
				for _, x := range succ {
					c += b2i(in[x])
				}
			} else {
				for _, x := range succ {
					c += b2i(in[x]) | b2i(prev[x] > 0)
				}
			}
			lvl[q] = int32(c)
		}
	}
}

// remove takes v out of sim(u) and queues the drops it causes at u's
// counters. Each level is checked on its own: mid-cascade a lower level can
// still be positive while a higher one has reached 0.
func (r *refiner) remove(u int32, v graph.Node) {
	if !r.s.in[u][v] {
		return
	}
	r.s.in[u][v] = false
	r.s.size[u]--
	r.ver[u]++
	if r.s.size[u] == 0 {
		r.failed = true
		return
	}
	if r.cnt[u] == nil {
		return
	}
	for j := range r.lv[u] {
		if j == 0 || r.level(u, j-1)[v] == 0 {
			r.sc.stack = append(r.sc.stack, drop{t: u, j: int32(j), x: v})
		}
	}
}

// drain applies queued drops until none is left or a set empties, and
// reports whether every set is still nonempty. After a set empties the
// refinement is abandoned, with drops still queued.
func (r *refiner) drain() bool {
	for len(r.sc.stack) > 0 && !r.failed {
		d := r.sc.stack[len(r.sc.stack)-1]
		r.sc.stack = r.sc.stack[:len(r.sc.stack)-1]
		t, j := d.t, int(d.j)
		lvl, in := r.level(t, j), r.s.in[t]
		preds := r.c.Predecessors(d.x)
		r.work.rows++
		r.work.entries += len(preds)
		for _, q := range preds {
			// A pulled top level holds no count off its candidates, so
			// there a drop takes 0 below 0 and reaches nothing.
			if lvl[q]--; lvl[q] != 0 {
				continue
			}
			// Decide q's drop one level up before removing it anywhere:
			// removing q from sim(t) itself (a self-loop edge) is the
			// event that records that drop when q ∈ sim(t).
			if j+1 < r.lv[t] && !in[q] {
				r.sc.stack = append(r.sc.stack, drop{t: t, j: int32(j + 1), x: q})
			}
			for _, u := range r.up[t][j] {
				r.remove(u, q)
			}
		}
	}
	return !r.failed
}

// runFar refines f's source by one ReverseWithinCSR pass from sim(f.t).
func (r *refiner) runFar(f *farEdge) {
	allowed := queries.ReverseWithinCSR(r.c, r.s.in[f.t], f.bound)
	f.seen = r.ver[f.t]
	for _, v := range r.s.live(f.u) {
		if !allowed[v] {
			r.remove(f.u, v)
		}
	}
}
