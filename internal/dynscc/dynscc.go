// Package dynscc maintains the strongly-connected-component condensation
// of an evolving graph under edge insertions and deletions. It is the SCC
// layer of incRCM (Section 5.1 of the paper) factored out so that both
// incremental maintainers — increach for reachability, incbisim for
// patterns — consume one graph and one condensation instead of each
// mutating a copy of G and re-deriving its own.
//
// The condensation is updated with work proportional to what an update
// touches: an insertion that closes a cycle merges the components on the
// new cycle (found by a search over the condensation DAG, smaller side
// first, the largest component absorbing the rest); an intra-component
// deletion that breaks its component peels off the parts that leave it, in
// time proportional to them, and the rest keeps the component's identity —
// a Tarjan pass over the whole member set runs only when the peel exceeds
// its budget (see "Splitting a component"); an inter-component deletion
// decrements a member-edge support count and drops the condensation edge at
// zero. Component adjacency is kept as small sorted slices and all traversal
// scratch is stamp-cleared, so a batch allocates only when a list grows.
//
// Apply records, per batch, what the consumers need to find their affected
// areas: how many updates left the transitive closure unchanged, which
// components may have separated from their reachability classes, and which
// nodes changed component.
//
// # Which components a deletion can separate from their classes
//
// Two components are reachability-equivalent when they have the same
// strict ancestors and the same strict descendants. Let a deletion change
// the closure, and let t and h be the components of its tail and head
// afterwards (two parts of the SCC it split, or the ends of the
// condensation edge it removed), so t no longer reaches h. Write
// X = anc*(t) and Y = desc*(h) in the updated condensation. A reachability
// pair (x,y) was lost iff x ∈ X, y ∈ Y and x no longer reaches y; nothing
// outside X ∪ Y changed. Take any hub z and let A = X \ anc*(z),
// B = Y \ desc*(z): a pair outside A×Y ∪ X×B still connects through z.
// Then, for the components other than t, h and split parts:
//
//   - x ∈ X \ A lost exactly the members of B it does not reach, so the
//     members of X \ A outside anc*(B) all lost the same set, B — they
//     stay classmates — and every unchanged one is inside anc*(B);
//     symmetrically the members of Y \ B outside desc*(A) all lost A;
//   - a class lies wholly inside or outside X (its members share their
//     descendants, t or the split SCC among them), and likewise Y;
//   - hence only A ∪ B ∪ (X ∩ anc*(B)) ∪ (Y ∩ desc*(A)) can have separated
//     from their classes.
//
// lossArea tries the hubs h (B is empty), t (A is empty) and, for a split,
// the part that kept the component's identity, and singles out the
// smallest of their sets. When a fan loses its edge into a giant
// SCC, or nodes peel off one on either side, that is the fan or the peeled
// nodes and what little else they alone reach or are reached by — not the
// giant's cones, whose thousands of components all changed, but
// uniformly.
//
// # Which candidate wins
//
// A candidate's area is listed as A, then the members of Y outside B that A
// reaches, then B, then the members of X outside A that reach B; a
// component listed twice counts twice. The smallest list wins, and of two
// equal ones the candidate first in the order h, t, host. Six sweeps come
// first whatever the candidates: X, Y, anc*(h), desc*(t) and, for a split,
// the host's two cones. They give |A| + |B| for every candidate, and the
// candidates are evaluated in ascending order of it. The first is listed
// in full. Every later one is listed only while it can still win, counting
// B from the start: one that comes before the best so far in the fixed
// order stops once it counts more than the best, one that comes after it
// once it counts as many. The winner, and the list it appends to Touched,
// are therefore those of listing every candidate in full. What a stopped
// candidate saves is the rest of its cone sweeps: on webcore16 the winning
// area is a handful of components, the cones of the losers thousands.
//
// # Splitting a component
//
// Delete (u,v) inside component C. Afterwards every member still reaches u
// and is reached from v: cut a path to u at its first visit of u, or a path
// from v at its last visit of v; the piece kept avoids the edge. Let S be a
// union of new parts closed forward in C (no edge leaves S for the rest of
// C), T a union closed backward (no edge enters T from the rest of C),
// R = C ∖ (S ∪ T), and r ∈ R an anchor with u ∈ S or u = r, and v ∈ T or
// v = r. Then R is strongly connected iff
//
//   - every node of R with an edge into S reaches r inside R, and
//   - r reaches every node of R with an edge from T inside R.
//
// Only "if" needs proof. A path between two members of C never leaves C —
// the condensation is acyclic — and a path from R never enters T (that
// takes an edge into T from outside it) and never returns from S (no edge
// leaves S). Take x ∈ R and a path x ⇝ u. If u = r the path stays in R.
// Otherwise u ∈ S, and the path stays in R up to its first edge into S,
// whose tail reaches r inside R by the first condition; so does x. Dually
// take a path v ⇝ x. If v = r it stays in R. Otherwise v ∈ T, after its last
// edge out of T the path stays in R, and r reaches that edge's head inside R
// by the second condition; so r reaches x. Every node of R thus reaches r
// and is reached from it inside R.
//
// split starts from the part the lockstep search that proved C broken ran
// dry on: u's (S is that part, r = v) or v's (T is that part, r = u). It
// then probes the boundary inside R with the same lockstep search: a node w
// with an edge into S forward from w and backward from r, a node w with an
// edge from T forward from r and backward from w. A probe that meets
// verifies w for that side (a node may be on both), and w is not probed for
// it again while r stays the anchor. A probe that runs dry has found a
// closed set:
//
//   - w's side. For an S-probe, w's forward closure in R joins S: its edges
//     lead into itself or S, as no edge from R enters T. For a T-probe, w's
//     backward closure joins T. Verifications stand: a path from a verified
//     node to r never enters w's forward closure, which it could not leave,
//     and dually.
//   - r's side. For an S-probe, r's backward closure in R joins T (its
//     in-edges come from itself or T); for a T-probe r's forward closure
//     joins S. w becomes the anchor and the scan restarts, as what was
//     verified was verified against r. r is not u here: when u = r every
//     node of R reaches r inside R, so the backward search from r meets w;
//     dually r is not v in the other case.
//
// Every step moves at least one part out of R and keeps the lemma's
// premises, and each search costs about twice the side that ran dry, so the
// work follows what leaves C rather than C — bar one scan of C's member
// list, which hands the peeled nodes over in member order. When the scan
// finds every boundary node verified, R keeps C's identity and a Tarjan
// pass restricted to the peeled nodes decomposes them into parts. The peel
// gives up, and the same Tarjan pass runs over all of C, once its probes
// have visited |C| nodes or the peeled nodes pass half of C. Before that R
// holds at least half of C and, when more than one part left, more than any
// of them, so it is the part the whole-component pass keeps as well.
package dynscc

import (
	"math"
	"slices"

	"repro/internal/graph"
)

type comp struct {
	members []graph.Node
	// out lists successor components ascending; sup[i] counts the member
	// edges behind the condensation edge to out[i]. in lists predecessor
	// components ascending.
	out, sup, in []int32
	cyclic       bool
	dead         bool
}

// Delta is the change log of one Apply call. Positions are recorded as
// nodes, not component ids, so that a consumer resolving them through
// CompOf after the batch always lands on a live component, however later
// updates of the same batch merged or split the one that was affected.
type Delta struct {
	// Redundant counts updates that left the transitive closure unchanged.
	Redundant int
	// Merges and Splits count SCC structure changes.
	Merges, Splits int
	// Resplits counts the splits that gave up peeling and re-decomposed the
	// whole component (package doc, "Splitting a component").
	Resplits int
	// LossSwept counts the components the loss-area sweeps of the batch's
	// closure-changing deletions marked, once per set they were marked in:
	// the work of finding their loss areas (package doc).
	LossSwept int
	// Touched holds one member of every component that an update may have
	// separated from its reachability class: both endpoints of a
	// closure-changing insertion, merge hosts, components whose self-loop
	// toggled, and for a closure-changing deletion its endpoints, every
	// part of a split and the loss area (package doc). Any other two
	// components equivalent before the batch still are after it.
	Touched []graph.Node
	// Moved lists the nodes whose component id changed.
	Moved []graph.Node
	// Dead lists component ids that ceased to exist; an id dead in one
	// batch is reused no earlier than the next.
	Dead []int32
}

func (d *Delta) reset() {
	d.Redundant, d.Merges, d.Splits, d.Resplits, d.LossSwept = 0, 0, 0, 0, 0
	d.Touched = d.Touched[:0]
	d.Moved = d.Moved[:0]
	d.Dead = d.Dead[:0]
}

// ClosureChanged reports whether any update of the batch changed the
// transitive closure of the graph.
func (d *Delta) ClosureChanged() bool { return len(d.Touched) > 0 }

// Cond owns an evolving graph and its condensation.
type Cond struct {
	g      *graph.Graph
	compOf []int32
	comps  []comp
	free   []int32 // ids dead since before the current batch
	delta  Delta

	// Stamp-cleared marks over component ids (cmark) and node ids (nmark):
	// a mark is set iff it equals a stamp handed out for the current
	// traversal, so clearing is a counter bump.
	cmark  []uint32
	cstamp uint32
	// cbits holds lossArea's set-membership bits, valid where cmark carries
	// bitStamp.
	cbits    []uint16
	bitStamp uint32
	area     [3][]int32 // lossArea's candidate areas
	nmark    []uint32
	nstamp   uint32

	// Per-node state of split, allocated on the first: tarjan's, valid where
	// nmark carries the pass's stamp, and peel's verified marks, relative to
	// a stamp handed out by nstamps per anchor.
	nidx, nlow, npart []int32
	nver              []uint32

	bufA, bufB, bufC []int32
	frames           []frame
	nbufA, nbufB     []graph.Node
	nbufC            []graph.Node
	nframes          []nframe

	work workCounts
}

// workCounts counts what splits and loss areas did, for tests: the nodes
// the splits' searches and Tarjan passes visited, the peels that took parts
// out of S only or T only (package doc), the anchor restarts — a peel that
// restarted took parts from both — and the lossArea calls.
type workCounts struct{ visits, sOnly, tOnly, restarts, losses int }

type frame struct{ c, i int32 }

type nframe struct {
	v graph.Node
	i int32
}

// New takes ownership of g and computes its condensation.
func New(g *graph.Graph) *Cond {
	s := graph.Tarjan(g)
	n := s.NumComponents()
	c := &Cond{
		g:      g,
		compOf: s.Comp,
		comps:  make([]comp, n),
		cmark:  make([]uint32, n),
		cbits:  make([]uint16, n),
		nmark:  make([]uint32, g.NumNodes()),
	}
	// The rows of s are capacity-limited views into flat arrays, so a later
	// append to one reallocates instead of clobbering its neighbor.
	for id := range c.comps {
		c.comps[id] = comp{
			members: s.Members[id],
			out:     s.Out[id],
			sup:     s.OutSupport[id],
			in:      s.In[id],
			cyclic:  s.Cyclic[id],
		}
	}
	return c
}

// Graph returns the maintained graph; mutate it only through Apply.
func (c *Cond) Graph() *graph.Graph { return c.g }

// NumSlots returns the size of the component id space; ids below it are
// live or dead.
func (c *Cond) NumSlots() int { return len(c.comps) }

// Live reports whether id names a component of the current condensation.
func (c *Cond) Live(id int32) bool { return !c.comps[id].dead }

// CompOf returns the component of node v.
func (c *Cond) CompOf(v graph.Node) int32 { return c.compOf[v] }

// Out returns the successor components of id, ascending. Read-only.
func (c *Cond) Out(id int32) []int32 { return c.comps[id].out }

// Cyclic reports whether component id contains a cycle (more than one
// member, or a self-loop).
func (c *Cond) Cyclic(id int32) bool { return c.comps[id].cyclic }

// Apply applies the effective update list eff — as returned by
// Graph().Reduce: every update changes the graph — to the graph and the
// condensation, in order, and returns the batch's change log. The log is
// owned by c and valid until the next Apply.
func (c *Cond) Apply(eff []graph.Update) *Delta {
	c.free = append(c.free, c.delta.Dead...)
	c.delta.reset()
	for _, up := range eff {
		if up.Insert {
			if c.g.AddEdge(up.From, up.To) {
				c.insert(up.From, up.To)
			}
		} else if c.g.RemoveEdge(up.From, up.To) {
			c.remove(up.From, up.To)
		}
	}
	return &c.delta
}

func (c *Cond) insert(u, v graph.Node) {
	d := &c.delta
	a, b := c.compOf[u], c.compOf[v]
	if a == b {
		if u == v && !c.comps[a].cyclic {
			// Self-loop on a trivial component: it becomes cyclic, which
			// changes only the pair (u,u) — and its class.
			c.comps[a].cyclic = true
			d.Touched = append(d.Touched, u)
			return
		}
		d.Redundant++ // intra-component edge
		return
	}
	already := c.reaches(a, b)
	c.addSupport(a, b, 1)
	if already {
		d.Redundant++
		return
	}
	if c.reaches(b, a) {
		c.mergeCycle(a, b)
		d.Merges++
		d.Touched = append(d.Touched, u)
		return
	}
	d.Touched = append(d.Touched, u, v)
}

func (c *Cond) remove(u, v graph.Node) {
	d := &c.delta
	a, b := c.compOf[u], c.compOf[v]
	if a == b {
		if u == v {
			if len(c.comps[a].members) > 1 {
				d.Redundant++
				return
			}
			c.comps[a].cyclic = false
			d.Touched = append(d.Touched, u)
			return
		}
		// The component stays strongly connected iff u still reaches v
		// inside it: paths leaving a component cannot return (the
		// condensation is a DAG), and any broken pair must involve the
		// deleted edge's endpoints.
		met, part, fromU, _ := c.probe(u, v, a)
		if met {
			d.Redundant++
			return
		}
		d.Splits++
		for _, p := range c.split(a, u, v, part, fromU) {
			d.Touched = append(d.Touched, c.comps[p].members[0])
		}
		c.lossArea(c.compOf[u], c.compOf[v], a)
		return
	}
	if c.decSupport(a, b) > 0 {
		d.Redundant++ // another member edge keeps the condensation edge
		return
	}
	if c.reaches(a, b) {
		// An alternate path survives; it cannot depend on the deleted edge
		// because the condensation is a DAG.
		d.Redundant++
		return
	}
	d.Touched = append(d.Touched, u, v)
	c.lossArea(a, b, -1)
}

// cstamps hands out k fresh component-mark stamps (consecutive, the
// largest returned).
func (c *Cond) cstamps(k uint32) uint32 {
	if c.cstamp > ^uint32(0)-k {
		clear(c.cmark)
		c.cstamp = 0
	}
	c.cstamp += k
	return c.cstamp
}

func (c *Cond) nstamps(k uint32) uint32 {
	if c.nstamp > ^uint32(0)-k {
		clear(c.nmark)
		clear(c.nver)
		c.nstamp = 0
	}
	c.nstamp += k
	return c.nstamp
}

// reaches reports whether component a reaches component b over the
// condensation (for a == b: whether a is cyclic). The search is
// bidirectional and always expands the frontier with fewer outgoing arcs,
// so a check against a hub component costs the small side only.
func (c *Cond) reaches(a, b int32) bool {
	if a == b {
		return c.comps[a].cyclic
	}
	bs := c.cstamps(2)
	fs := bs - 1
	mark := c.cmark
	mark[a], mark[b] = fs, bs
	fwd := append(c.bufA[:0], a)
	bwd := append(c.bufB[:0], b)
	next := c.bufC[:0]
	fdeg, bdeg := len(c.comps[a].out), len(c.comps[b].in)
	found := false
search:
	for len(fwd) > 0 && len(bwd) > 0 {
		next = next[:0]
		if fdeg <= bdeg {
			fdeg = 0
			for _, x := range fwd {
				for _, t := range c.comps[x].out {
					if mark[t] == bs {
						found = true
						break search
					}
					if mark[t] != fs {
						mark[t] = fs
						next = append(next, t)
						fdeg += len(c.comps[t].out)
					}
				}
			}
			fwd, next = next, fwd
		} else {
			bdeg = 0
			for _, x := range bwd {
				for _, f := range c.comps[x].in {
					if mark[f] == fs {
						found = true
						break search
					}
					if mark[f] != bs {
						mark[f] = bs
						next = append(next, f)
						bdeg += len(c.comps[f].in)
					}
				}
			}
			bwd, next = next, bwd
		}
	}
	c.bufA, c.bufB, c.bufC = fwd[:0], bwd[:0], next[:0]
	return found
}

// addSupport adds n member edges to the condensation edge (a,b), creating
// it when absent.
func (c *Cond) addSupport(a, b, n int32) {
	ca := &c.comps[a]
	i, ok := slices.BinarySearch(ca.out, b)
	if ok {
		ca.sup[i] += n
		return
	}
	ca.out = slices.Insert(ca.out, i, b)
	ca.sup = slices.Insert(ca.sup, i, n)
	cb := &c.comps[b]
	j, _ := slices.BinarySearch(cb.in, a)
	cb.in = slices.Insert(cb.in, j, a)
}

// decSupport removes one member edge from the condensation edge (a,b),
// dropping the edge at zero, and returns the support left.
func (c *Cond) decSupport(a, b int32) int32 {
	ca := &c.comps[a]
	i, _ := slices.BinarySearch(ca.out, b)
	ca.sup[i]--
	left := ca.sup[i]
	if left == 0 {
		c.dropArc(a, b, i)
	}
	return left
}

// dropArc deletes the condensation edge (a,b), at index i of a's out list.
func (c *Cond) dropArc(a, b int32, i int) {
	ca := &c.comps[a]
	ca.out = slices.Delete(ca.out, i, i+1)
	ca.sup = slices.Delete(ca.sup, i, i+1)
	cb := &c.comps[b]
	j, _ := slices.BinarySearch(cb.in, a)
	cb.in = slices.Delete(cb.in, j, j+1)
}

// pathSet returns the components on some condensation path src ⇝ dst,
// both endpoints included, given that one exists. It is a memoized DFS
// that never expands the far endpoint, run from whichever end has the
// smaller degree (an unrestricted search out of a hub would visit its
// whole cone). The result aliases scratch valid until the next call.
func (c *Cond) pathSet(src, dst int32) []int32 {
	forward := len(c.comps[src].out) <= len(c.comps[dst].in)
	start, stop := src, dst
	if !forward {
		start, stop = dst, src
	}
	yes := c.cstamps(2)
	no := yes - 1
	mark := c.cmark
	set := c.bufA[:0]
	frames := append(c.frames[:0], frame{c: start})
	mark[start] = no
	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		adj := c.comps[f.c].out
		if !forward {
			adj = c.comps[f.c].in
		}
		if int(f.i) < len(adj) {
			t := adj[f.i]
			f.i++
			switch {
			case t == stop || mark[t] == yes:
				mark[f.c] = yes
			case mark[t] != no:
				// Unvisited. A visited t is finished: the condensation is
				// a DAG, so t cannot be an ancestor of f.c on the stack.
				mark[t] = no
				frames = append(frames, frame{c: t})
			}
			continue
		}
		x := f.c
		frames = frames[:len(frames)-1]
		if mark[x] == yes {
			set = append(set, x)
			if len(frames) > 0 {
				mark[frames[len(frames)-1].c] = yes
			}
		}
	}
	c.frames = frames
	set = append(set, stop)
	c.bufA = set[:0]
	return set
}

// mergeCycle merges every component on a path b ⇝ a (a and b included)
// into one cyclic component after the edge (a,b) was added. The member
// with the largest footprint keeps its identity and absorbs the others, so
// pulling a small component into a giant SCC costs the small side's
// degree.
func (c *Cond) mergeCycle(a, b int32) {
	set := c.pathSet(b, a)
	host := set[0]
	hostCost := -1
	for _, x := range set {
		cx := &c.comps[x]
		if cost := len(cx.members) + len(cx.out) + len(cx.in); cost > hostCost {
			hostCost, host = cost, x
		}
	}
	ms := c.cstamps(1)
	mark := c.cmark
	for _, x := range set {
		mark[x] = ms
	}
	for _, x := range set {
		if x == host {
			continue
		}
		old := c.comps[x]
		h := &c.comps[host]
		h.members = append(h.members, old.members...)
		for _, v := range old.members {
			c.compOf[v] = host
		}
		c.delta.Moved = append(c.delta.Moved, old.members...)
		for i, t := range old.out {
			if mark[t] == ms {
				continue // now internal to the merged component
			}
			ct := &c.comps[t]
			j, _ := slices.BinarySearch(ct.in, x)
			ct.in = slices.Delete(ct.in, j, j+1)
			c.addSupport(host, t, old.sup[i])
		}
		for _, f := range old.in {
			if mark[f] == ms {
				continue
			}
			cf := &c.comps[f]
			j, _ := slices.BinarySearch(cf.out, x)
			s := cf.sup[j]
			cf.out = slices.Delete(cf.out, j, j+1)
			cf.sup = slices.Delete(cf.sup, j, j+1)
			c.addSupport(f, host, s)
		}
		c.kill(x)
	}
	// The host's own edges to absorbed components became internal.
	h := &c.comps[host]
	k := 0
	for i, t := range h.out {
		if mark[t] != ms {
			h.out[k], h.sup[k] = t, h.sup[i]
			k++
		}
	}
	h.out, h.sup = h.out[:k], h.sup[:k]
	k = 0
	for _, f := range h.in {
		if mark[f] != ms {
			h.in[k] = f
			k++
		}
	}
	h.in = h.in[:k]
	h.cyclic = true
}

func (c *Cond) kill(x int32) {
	c.comps[x] = comp{dead: true}
	c.delta.Dead = append(c.delta.Dead, x)
}

// newComp returns a fresh (or recycled) empty component id.
func (c *Cond) newComp() int32 {
	if n := len(c.free); n > 0 {
		id := c.free[n-1]
		c.free = c.free[:n-1]
		c.comps[id] = comp{}
		return id
	}
	c.comps = append(c.comps, comp{})
	c.cmark = append(c.cmark, 0)
	c.cbits = append(c.cbits, 0)
	return int32(len(c.comps) - 1)
}

// probe searches forward from u and backward from v through members of
// comp, one expansion each in turns so the two explored regions stay the
// same size. It reports whether they met — u still reaches v — and, if
// not, the side that ran dry: all of it, and whether it was u's. visited
// counts the nodes both sides reached.
//
// After the deletion of (u,v) inside an SCC every member still reaches u
// and is still reached from v (cut a path at its first visit of u, or last
// of v: the piece kept avoids the edge). So a forward search from u that
// runs dry has found exactly u's new component — everything u reaches
// reaches it back — and a dry backward search from v exactly v's. The
// result aliases scratch valid until the next probe.
func (c *Cond) probe(u, v graph.Node, comp int32) (met bool, dry []graph.Node, fromU bool, visited int) {
	if u == v {
		return true, nil, false, 0
	}
	bs := c.nstamps(2)
	fs := bs - 1
	mark := c.nmark
	mark[u], mark[v] = fs, bs
	fwd := append(c.nbufA[:0], u)
	bwd := append(c.nbufB[:0], v)
	fi, bi := 0, 0
search:
	for fi < len(fwd) && bi < len(bwd) {
		for _, w := range c.g.Successors(fwd[fi]) {
			if c.compOf[w] != comp || mark[w] == fs {
				continue
			}
			if mark[w] == bs {
				met = true
				break search
			}
			mark[w] = fs
			fwd = append(fwd, w)
		}
		fi++
		for _, w := range c.g.Predecessors(bwd[bi]) {
			if c.compOf[w] != comp || mark[w] == bs {
				continue
			}
			if mark[w] == fs {
				met = true
				break search
			}
			mark[w] = bs
			bwd = append(bwd, w)
		}
		bi++
	}
	c.nbufA, c.nbufB = fwd[:0], bwd[:0]
	visited = len(fwd) + len(bwd)
	c.work.visits += visited
	switch {
	case met:
		return true, nil, false, visited
	case fi == len(fwd):
		return false, fwd, true, visited
	default:
		return false, bwd, false, visited
	}
}

// split re-decomposes component a after the deletion of its internal edge
// (u,v) broke it, given the part probe found (u's if fromU, else v's). The
// largest part keeps the id a and its adjacency; the other parts get fresh
// ids and only their members' edges are re-counted. It returns the ids of
// all parts.
func (c *Cond) split(a int32, u, v graph.Node, part []graph.Node, fromU bool) []int32 {
	if c.nidx == nil {
		n := len(c.compOf)
		c.nidx, c.nlow, c.npart = make([]int32, n), make([]int32, n), make([]int32, n)
		c.nver = make([]uint32, n)
	}
	ids := c.peel(a, u, v, part, fromU)
	if ids == nil {
		c.delta.Resplits++
		ids = c.decompose(a)
	}

	ms := c.cstamps(1)
	for _, id := range ids {
		c.cmark[id] = ms
	}
	// Hand the peeled nodes, already labeled in compOf, to their components,
	// in a's member order. This scan of a's list is split's one step that
	// costs |a| rather than what leaves it: a read of compOf per member.
	members := c.comps[a].members
	keep := members[:0]
	for _, x := range members {
		id := c.compOf[x]
		if id == a {
			keep = append(keep, x)
			continue
		}
		c.comps[id].members = append(c.comps[id].members, x)
		c.delta.Moved = append(c.delta.Moved, x)
	}
	c.comps[a].members = keep

	// Re-count the edges at the peeled nodes. An edge to or from outside
	// the old component moves its support from a to the new part; an edge
	// that was internal to a now crosses parts. Edges between two peeled
	// parts are counted from their tail's successor scan only.
	for _, id := range ids {
		if id == a {
			continue
		}
		for _, x := range c.comps[id].members {
			for _, w := range c.g.Successors(x) {
				cw := c.compOf[w]
				if cw == id {
					continue
				}
				if c.cmark[cw] != ms {
					c.decSupport(a, cw)
				}
				c.addSupport(id, cw, 1)
			}
			for _, w := range c.g.Predecessors(x) {
				cw := c.compOf[w]
				if c.cmark[cw] != ms {
					c.decSupport(cw, a)
					c.addSupport(cw, id, 1)
				} else if cw == a {
					c.addSupport(a, id, 1)
				}
			}
		}
	}
	for _, id := range ids {
		m := c.comps[id].members
		c.comps[id].cyclic = len(m) > 1 || c.g.HasEdge(m[0], m[0])
	}
	return ids
}

// Labels peel gives the nodes it takes out of R in compOf: members of S and
// members of T (package doc). No component has a negative id.
const (
	inS int32 = -1 - iota
	inT
)

// peel is the fast path of split: it takes the parts that leave component
// a out of it by the loop of the package doc, starting from part — exactly
// u's new component (fromU) or v's. On success it labels each peeled node
// with the fresh id of its part in compOf and returns those ids, then a,
// which the rest keeps. It gives up (nil), leaving compOf as it found it,
// once its probes have visited as many nodes as a has or the peeled nodes
// outnumber the rest.
func (c *Cond) peel(a int32, u, v graph.Node, part []graph.Node, fromU bool) []int32 {
	size := len(c.comps[a].members)
	if 2*len(part) > size {
		return nil
	}
	// S ∪ T in the order taken out of R; its own backing, as every probe
	// reuses part's.
	peeled := append(c.nbufC[:0], part...)
	side, anchor := inS, v
	if !fromU {
		side, anchor = inT, u
	}
	for _, x := range part {
		c.compOf[x] = side
	}
	budget := size
	// A node can have edges into S and from T and is verified once for
	// each: nver[w] − base holds bit 1 once w is known to reach the anchor,
	// bit 2 once the anchor is known to reach w, and is out of range for a
	// mark from before the anchor.
	base := c.nstamps(4) - 3
	ok := true
scan:
	for i := 0; i < len(peeled); i++ {
		x := peeled[i]
		intoS := c.compOf[x] == inS
		nbrs, dir := c.g.Predecessors(x), uint32(1)
		if !intoS {
			nbrs, dir = c.g.Successors(x), 2
		}
		for _, w := range nbrs {
			if c.compOf[w] != a {
				continue
			}
			seen := c.nver[w] - base
			if seen > 3 {
				seen = 0
			}
			if seen&dir != 0 {
				continue
			}
			// An S-probe searches forward from w and backward from the
			// anchor, a T-probe the other way round; farDry reports that
			// w's side ran dry.
			var met, farDry bool
			var dry []graph.Node
			var visited int
			if intoS {
				met, dry, farDry, visited = c.probe(w, anchor, a)
			} else {
				met, dry, farDry, visited = c.probe(anchor, w, a)
				farDry = !farDry
			}
			if budget -= visited; budget < 0 {
				ok = false
				break scan
			}
			if met {
				c.nver[w] = base + (seen | dir)
				continue
			}
			// w's closure joins its own side; the anchor's joins the other
			// and w takes over as the anchor.
			join := inS
			if intoS != farDry {
				join = inT
			}
			for _, y := range dry {
				c.compOf[y] = join
			}
			peeled = append(peeled, dry...)
			if 2*len(peeled) > size {
				ok = false
				break scan
			}
			if !farDry {
				anchor, base = w, c.nstamps(4)-3
				c.work.restarts++
				i = -1
				continue scan
			}
		}
	}
	c.nbufC = peeled[:0]
	if !ok {
		for _, x := range peeled {
			c.compOf[x] = a
		}
		return nil
	}
	ids := c.tarjan(peeled, inS, c.bufB[:0])
	nS := len(ids)
	ids = c.tarjan(peeled, inT, ids)
	switch {
	case nS == len(ids):
		c.work.sOnly++
	case nS == 0:
		c.work.tOnly++
	}
	for p := range ids {
		ids[p] = c.newComp()
	}
	for _, x := range peeled {
		c.compOf[x] = ids[c.npart[x]]
	}
	ids = append(ids, a)
	c.bufB = ids[:0]
	return ids
}

// decompose is the general path of split: a Tarjan pass over all of a's
// members. The members of every part but the largest are labeled with a
// fresh id in compOf.
func (c *Cond) decompose(a int32) []int32 {
	members := c.comps[a].members
	sizes := c.tarjan(members, a, c.bufB[:0])
	largest := 0
	for p, size := range sizes {
		if size > sizes[largest] {
			largest = p
		}
	}
	ids := sizes // part index -> component id, overwriting the sizes
	for p := range ids {
		if p == largest {
			ids[p] = a
		} else {
			ids[p] = c.newComp()
		}
	}
	c.bufB = ids[:0]
	for _, x := range members {
		c.compOf[x] = ids[c.npart[x]]
	}
	return ids
}

// tarjan runs Tarjan's algorithm over the nodes labeled label in compOf,
// from those of roots, following only edges between such nodes. It records
// each node's part in npart, numbering the parts on from len(sizes), and
// returns sizes with the size of each part appended.
func (c *Cond) tarjan(roots []graph.Node, label int32, sizes []int32) []int32 {
	st := c.nstamps(1)
	mark, idx, low, part := c.nmark, c.nidx, c.nlow, c.npart
	stack := c.nbufA[:0]
	frames := c.nframes[:0]
	var next int32
	for _, root := range roots {
		if c.compOf[root] != label || mark[root] == st {
			continue
		}
		mark[root] = st
		idx[root], low[root], part[root] = next, next, -1
		next++
		stack = append(stack, root)
		frames = append(frames, nframe{v: root})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			succ := c.g.Successors(f.v)
			if int(f.i) < len(succ) {
				w := succ[f.i]
				f.i++
				if c.compOf[w] != label {
					continue
				}
				if mark[w] != st {
					mark[w] = st
					idx[w], low[w], part[w] = next, next, -1
					next++
					stack = append(stack, w)
					frames = append(frames, nframe{v: w})
				} else if part[w] < 0 && idx[w] < low[f.v] {
					low[f.v] = idx[w] // w is on the stack
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == idx[v] {
				id := int32(len(sizes))
				size := int32(0)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					part[w] = id
					size++
					if w == v {
						break
					}
				}
				sizes = append(sizes, size)
			}
		}
	}
	c.nbufA, c.nframes = stack[:0], frames[:0]
	c.work.visits += int(next)
	return sizes
}

// Bits of the per-component set membership lossArea tracks.
const (
	inX    = 1 << iota  // reaches t
	inY                 // reachable from h
	toH                 // reaches h
	byT                 // reachable from t
	toHost              // reaches the split's host part
	byHost              // reachable from the split's host part
	nearA               // reachable from a component of A; one bit per hub tried, this the first
	nearB  = nearA << 3 // reaches a component of B; likewise
)

// hub describes one candidate hub z of lossArea by the bits its sets are
// read from: a member of X is outside A iff it carries skipA, a member of
// Y outside B iff it carries skipB (inX and inY mean "A, resp. B, is
// empty").
type hub struct{ skipA, skipB, nearA, nearB uint16 }

// lossArea appends to the change log the components that a
// closure-changing deletion may have separated from their classes, given
// the components t and h of its tail and head afterwards and, for a split,
// the part host that kept the old component's id (otherwise -1). See the
// package doc.
func (c *Cond) lossArea(t, h, host int32) {
	c.work.losses++
	c.bitStamp = c.cstamps(1)
	xs := c.sweep(c.bufA[:0], t, inX, false)
	ys := c.sweep(c.bufB[:0], h, inY, true)
	c.bufA, c.bufB = xs[:0], ys[:0]

	// Candidate hubs: h (A = X minus anc*(h), B empty), t (A empty,
	// B = Y minus desc*(t)) and a split's host part. The size of A ∪ B says
	// little about the area — one hub-like member of A drags in its whole
	// cone — so areas are compared, not A ∪ B; it only orders the candidates
	// (package doc, "Which candidate wins").
	c.bufC = c.sweep(c.bufC[:0], h, toH, false)[:0]
	c.bufC = c.sweep(c.bufC[:0], t, byT, true)[:0]
	hubs := [3]hub{
		{skipA: toH, skipB: inY, nearA: nearA, nearB: nearB},
		{skipA: inX, skipB: byT, nearA: nearA << 1, nearB: nearB << 1},
	}
	n := 2
	if host >= 0 && host != t && host != h {
		c.bufC = c.sweep(c.bufC[:0], host, toHost, false)[:0]
		c.bufC = c.sweep(c.bufC[:0], host, byHost, true)[:0]
		hubs[2] = hub{skipA: toHost, skipB: byHost, nearA: nearA << 2, nearB: nearB << 2}
		n = 3
	}
	var sizeA, sizeB [3]int
	for _, x := range xs {
		for k := range n {
			if c.cbits[x]&hubs[k].skipA == 0 {
				sizeA[k]++
			}
		}
	}
	for _, y := range ys {
		for k := range n {
			if c.cbits[y]&hubs[k].skipB == 0 {
				sizeB[k]++
			}
		}
	}
	order := [3]int{0, 1, 2}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && sizeA[order[j]]+sizeB[order[j]] < sizeA[order[j-1]]+sizeB[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	best, bestArea := -1, []int32(nil)
	for _, k := range order[:n] {
		limit := math.MaxInt
		if best >= 0 {
			// k wins a tie iff it comes before the best in the fixed order.
			if limit = len(bestArea); k < best {
				limit++
			}
		}
		area, ok := c.hubArea(hubs[k], xs, ys, sizeB[k], limit, c.area[k][:0])
		c.area[k] = area[:0]
		if ok {
			best, bestArea = k, area
		}
	}
	for _, x := range bestArea {
		c.delta.Touched = append(c.delta.Touched, c.comps[x].members[0])
	}
}

// hubArea appends to area the loss area of candidate hb: the members of A,
// the members of Y outside B that A reaches, the members of B, and the
// members of X outside A that reach B, in that order, a component that
// qualifies twice listed twice. sizeB is |B|. It gives up, reporting false,
// once the list, with B counted from the start, has limit entries.
func (c *Cond) hubArea(hb hub, xs, ys []int32, sizeB, limit int, area []int32) ([]int32, bool) {
	for _, x := range xs {
		if c.cbits[x]&hb.skipA == 0 {
			area = append(area, x)
		}
	}
	if len(area)+sizeB >= limit {
		return area, false
	}
	area, ok := c.cone(area, xs, hb.skipA, hb.nearA, inY|hb.skipB, true, limit-sizeB)
	if !ok {
		return area, false
	}
	for _, y := range ys {
		if c.cbits[y]&hb.skipB == 0 {
			area = append(area, y)
		}
	}
	return c.cone(area, ys, hb.skipB, hb.nearB, inX|hb.skipA, false, limit)
}

// cone sweeps, as sweep does with bit, from every seed that lacks skip in
// turn, and appends to area every component it marks that carries all of
// keep, in the order marked. It stops, reporting false, once area has limit
// entries.
func (c *Cond) cone(area, seeds []int32, skip, bit, keep uint16, forward bool, limit int) ([]int32, bool) {
	mark, bits, st := c.cmark, c.cbits, c.bitStamp
	queue := c.bufC[:0]
	visit := func(x int32) {
		if mark[x] != st {
			mark[x], bits[x] = st, 0
		}
		if bits[x]&bit == 0 {
			bits[x] |= bit
			queue = append(queue, x)
			if bits[x]&keep == keep {
				area = append(area, x)
			}
		}
	}
	for _, s := range seeds {
		if len(area) >= limit {
			break
		}
		if bits[s]&skip != 0 {
			continue
		}
		i := len(queue)
		for visit(s); i < len(queue) && len(area) < limit; i++ {
			adj := c.comps[queue[i]].out
			if !forward {
				adj = c.comps[queue[i]].in
			}
			for _, x := range adj {
				if visit(x); len(area) >= limit {
					break
				}
			}
		}
	}
	c.delta.LossSwept += len(queue)
	c.bufC = queue[:0]
	return area, len(area) < limit
}

// sweep marks bit on every component reachable from seed (seed included) —
// forward over successor edges or backward over predecessor edges —
// stopping at components that already carry it, and appends the newly
// marked ones to dst. Bits are scoped to c.bitStamp.
func (c *Cond) sweep(dst []int32, seed int32, bit uint16, forward bool) []int32 {
	mark, bits, st := c.cmark, c.cbits, c.bitStamp
	set := func(x int32) bool {
		if mark[x] != st {
			mark[x], bits[x] = st, 0
		}
		if bits[x]&bit != 0 {
			return false
		}
		bits[x] |= bit
		return true
	}
	if !set(seed) {
		return dst
	}
	first := len(dst)
	dst = append(dst, seed)
	for i := first; i < len(dst); i++ {
		adj := c.comps[dst[i]].out
		if !forward {
			adj = c.comps[dst[i]].in
		}
		for _, x := range adj {
			if set(x) {
				dst = append(dst, x)
			}
		}
	}
	c.delta.LossSwept += len(dst) - first
	return dst
}
