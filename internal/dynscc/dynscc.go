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
// zero. All traversal scratch is stamp-cleared, so a batch allocates only
// when an arena below is repacked.
//
// # Storage
//
// Nothing the condensation keeps holds a pointer. Each component slot is one
// 28-byte record: its member list's handle and count, a span of the out
// arena and one of the in arena, the size class of each span's region, and
// its flags. The out arena holds every component's successor row, ascending,
// with the member-edge support of each condensation edge in a parallel
// array; the in arena holds the predecessor rows. Members form a circular
// doubly linked list through two links per node, so a merge splices lists
// and a split unlinks exactly the nodes that leave. New adopts Tarjan's flat
// out, support and in arrays as the arenas as they stand, each row in a
// region of its own length.
//
// Rows are edited by the rule graph.Graph's rows follow, with no seal, since
// no snapshot shares these arenas, and one addition: a row that outgrows its
// region gets the next power-of-two region, as a slice gets capacity. A row
// that grows within its region is edited in place; a region that grows is
// extended in place when it ends at the arena's tip, else copied to the
// tip. A removal shifts inside the row, and a row whose region is its own
// length gives the entry back. When a region must move and the arena is
// full, or its dead entries pass a quarter of the rest, the arena is packed
// afresh: regions in id order, the moving one last. The powers of two are
// for the giant SCC, whose predecessor row on social16 holds 12 088 of the
// in arena's 13 604 entries: copied to the tip on every growth, it repacked
// the arena on almost every write that touched it. A split carves each new
// part's two rows whole, from one scan of its members' edges. Writes
// therefore touch only the row being edited, entries past every live
// region, or a fresh arena: a row read before an edit of another row still
// reads the same.
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
// work follows what leaves C rather than C, down to unlinking the peeled
// nodes from C's member list one by one. When the scan finds every boundary
// node verified, R keeps C's identity and a Tarjan pass restricted to the
// peeled nodes decomposes them into parts. The peel
// gives up, and the same Tarjan pass runs over all of C, once its probes
// have visited |C| nodes or the peeled nodes pass half of C. Before that R
// holds at least half of C and, when more than one part left, more than any
// of them, so it is the part the whole-component pass keeps as well.
package dynscc

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/graph"
)

// comp is one component slot: its members — a circular list through
// Cond.next and Cond.prev, handled by the last — its rows as spans of the
// two arenas with the log class of each row's region, and its flags.
// Package doc, "Storage".
type comp struct {
	last   graph.Node
	size   int32
	sp     [2]span  // the successor row (outs) and the predecessor row (ins)
	lg     [2]uint8 // per row: 0 when its region is its n entries, else 1 + log2 of the region
	cyclic bool
	dead   bool
}

// span is a row: n entries of an arena from at.
type span struct{ at, n int32 }

// The two arenas and the row of a record each indexes.
const (
	outs = iota // successor rows, ascending, with the supports beside them
	ins         // predecessor rows, ascending
)

// region returns the arena entries id's row on side s owns from its start.
func (r *comp) region(s int) int {
	if r.lg[s] == 0 {
		return int(r.sp[s].n)
	}
	return 1 << (r.lg[s] - 1)
}

// class returns the log class of the smallest power-of-two region that
// holds n > 0 entries.
func class(n int) uint8 { return uint8(bits.Len(uint(n-1))) + 1 }

// arena holds rows back to back. sup, on the out side only, holds beside
// each entry the member edges behind that condensation edge. dead counts the
// entries below the tip that no row's region covers.
type arena struct {
	ent, sup []int32
	dead     int
}

// An arena is packed when a region must move and its dead entries pass a
// 1/arenaSlack share of what the regions hold, or it is full; it is packed
// with a 1/arenaSlack share of what they hold, and minSpare more, free at
// the tip.
const (
	arenaSlack = 4
	minSpare   = 16
)

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
	ar     [2]arena // rows: outs, ins
	// Member lists: node -> the next and the previous member of its
	// component, around a circle.
	next, prev []graph.Node
	free       []int32 // ids dead since before the current batch
	delta      Delta

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
	outOff, out, sup := s.OutRows()
	inOff, in := s.InRows()
	c := &Cond{
		g:      g,
		compOf: s.Comp,
		comps:  make([]comp, n),
		ar:     [2]arena{{ent: out, sup: sup}, {ent: in}},
		next:   make([]graph.Node, g.NumNodes()),
		prev:   make([]graph.Node, g.NumNodes()),
		cmark:  make([]uint32, n),
		cbits:  make([]uint16, n),
		nmark:  make([]uint32, g.NumNodes()),
	}
	for id := range c.comps {
		ms := s.Members(int32(id))
		prev := ms[len(ms)-1]
		for _, v := range ms {
			c.next[prev], c.prev[v], prev = v, prev, v
		}
		r := &c.comps[id]
		r.last, r.size, r.cyclic = prev, int32(len(ms)), s.Cyclic[id]
		for side, off := range [2][]int32{outOff, inOff} {
			r.sp[side] = span{off[id], off[id+1] - off[id]}
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

// Out returns the successor components of id, ascending. Read-only, and
// valid until the next Apply.
func (c *Cond) Out(id int32) []int32 { return c.row(id, outs) }

// Cyclic reports whether component id contains a cycle (more than one
// member, or a self-loop).
func (c *Cond) Cyclic(id int32) bool { return c.comps[id].cyclic }

// Footprint returns the bytes c's own tables hold, read off their
// capacities: the component records, the two arenas, the per-node and
// per-component arrays, the change log and the traversal scratch. The graph
// is not counted.
func (c *Cond) Footprint() int {
	n := int(unsafe.Sizeof(comp{}))*cap(c.comps) + 2*cap(c.cbits) + 8*(cap(c.frames)+cap(c.nframes))
	for _, s := range [][]int32{
		c.compOf, c.ar[outs].ent, c.ar[outs].sup, c.ar[ins].ent, c.next, c.prev, c.free,
		c.delta.Touched, c.delta.Moved, c.delta.Dead, c.area[0], c.area[1], c.area[2],
		c.nidx, c.nlow, c.npart, c.bufA, c.bufB, c.bufC, c.nbufA, c.nbufB, c.nbufC,
	} {
		n += 4 * cap(s)
	}
	for _, s := range [][]uint32{c.cmark, c.nmark, c.nver} {
		n += 4 * cap(s)
	}
	return n
}

// row returns id's row on side s.
func (c *Cond) row(id int32, s int) []int32 {
	r := c.comps[id].sp[s]
	return c.ar[s].ent[r.at : r.at+r.n : r.at+r.n]
}

// sup returns the supports beside id's successor row.
func (c *Cond) sup(id int32) []int32 {
	r := c.comps[id].sp[outs]
	return c.ar[outs].sup[r.at : r.at+r.n : r.at+r.n]
}

// deg returns the length of id's row on side s.
func (c *Cond) deg(id int32, s int) int { return int(c.comps[id].sp[s].n) }

// first returns the first member of component id.
func (c *Cond) first(id int32) graph.Node { return c.next[c.comps[id].last] }

// push appends node v to component id's member list.
func (c *Cond) push(id int32, v graph.Node) {
	r := &c.comps[id]
	if r.size == 0 {
		c.next[v], c.prev[v] = v, v
	} else {
		f := c.next[r.last]
		c.next[r.last], c.prev[v], c.next[v], c.prev[f] = v, r.last, f, v
	}
	r.last = v
	r.size++
}

// unlink takes node v out of component id's member list.
func (c *Cond) unlink(id int32, v graph.Node) {
	r := &c.comps[id]
	p, n := c.prev[v], c.next[v]
	c.next[p], c.prev[n] = n, p
	if r.last == v {
		r.last = p
	}
	r.size--
}

// splice appends component x's member list to host's.
func (c *Cond) splice(host, x int32) {
	h, o := &c.comps[host], &c.comps[x]
	hf, xf := c.next[h.last], c.next[o.last]
	c.next[h.last], c.prev[xf] = xf, h.last
	c.next[o.last], c.prev[hf] = hf, o.last
	h.last = o.last
	h.size += o.size
}

// members appends the members of id to dst, in list order.
func (c *Cond) members(dst []graph.Node, id int32) []graph.Node {
	v := c.first(id)
	for k := c.comps[id].size; k > 0; k-- {
		dst = append(dst, v)
		v = c.next[v]
	}
	return dst
}

// insertAt inserts x, with support k on the out side, at position i of id's
// row on side s (package doc, "Storage").
func (c *Cond) insertAt(id int32, s, i int, x, k int32) {
	c.reserve(id, s, 1)
	a := &c.ar[s]
	r := &c.comps[id].sp[s]
	at, n := int(r.at), int(r.n)
	copy(a.ent[at+i+1:at+n+1], a.ent[at+i:at+n])
	a.ent[at+i] = x
	if s == outs {
		copy(a.sup[at+i+1:at+n+1], a.sup[at+i:at+n])
		a.sup[at+i] = k
	}
	r.n++
}

// reserve makes room in id's region on side s for k more entries. A region
// that is too small grows to the next power of two that holds them: in
// place when it ends at the arena's tip and the arena has room, else at the
// tip, else in a fresh arena.
func (c *Cond) reserve(id int32, s, k int) {
	a := &c.ar[s]
	r := &c.comps[id]
	sp := &r.sp[s]
	at, n, have := int(sp.at), int(sp.n), r.region(s)
	if n+k <= have {
		return
	}
	lg := class(n + k)
	want := 1 << (lg - 1)
	if end := len(a.ent); at+have == end && at+want <= cap(a.ent) {
		a.ent = a.ent[:at+want]
		if s == outs {
			a.sup = a.sup[:at+want]
		}
	} else if arenaSlack*a.dead > end-a.dead || end+want > cap(a.ent) {
		c.pack(s, id, want)
	} else {
		a.ent = a.ent[:end+want]
		copy(a.ent[end:], a.ent[at:at+n])
		if s == outs {
			a.sup = a.sup[:end+want]
			copy(a.sup[end:], a.sup[at:at+n])
		}
		a.dead += have
		sp.at = int32(end)
	}
	r.lg[s] = lg
}

// removeAt removes the entry at position i of id's row on side s.
func (c *Cond) removeAt(id int32, s, i int) {
	a := &c.ar[s]
	r := &c.comps[id].sp[s]
	at, n := int(r.at), int(r.n)
	copy(a.ent[at+i:at+n], a.ent[at+i+1:at+n])
	if s == outs {
		copy(a.sup[at+i:at+n], a.sup[at+i+1:at+n])
	}
	r.n--
	c.dropped(id, s, 1)
}

// dropped accounts for the k entries id's row on side s just gave up at its
// end. A row whose region is its entries gives them up with them: to the
// arena's tip when the row ended there, else as dead entries. A grown
// region keeps them.
func (c *Cond) dropped(id int32, s, k int) {
	r := &c.comps[id]
	if r.lg[s] != 0 {
		return
	}
	a := &c.ar[s]
	sp := &r.sp[s]
	if end := int(sp.at+sp.n) + k; end == len(a.ent) {
		a.ent = a.ent[:end-k]
		if s == outs {
			a.sup = a.sup[:end-k]
		}
	} else {
		a.dead += k
	}
}

// carve writes vals, with sups beside them on the out side, into id's empty
// row on side s.
func (c *Cond) carve(id int32, s int, vals, sups []int32) {
	if len(vals) == 0 {
		return
	}
	c.reserve(id, s, len(vals))
	r := &c.comps[id].sp[s]
	copy(c.ar[s].ent[r.at:], vals)
	if s == outs {
		copy(c.ar[s].sup[r.at:], sups)
	}
	r.n = int32(len(vals))
}

// pack copies the regions of side s into a fresh arena, in id order but for
// last's (-1 for none), which goes at the tip in a region of want entries.
// A 1/arenaSlack share of what the regions hold, and minSpare more, is left
// free past it.
func (c *Cond) pack(s int, last int32, want int) {
	a := &c.ar[s]
	held := len(a.ent) - a.dead + want
	if last >= 0 {
		held -= c.comps[last].region(s)
	}
	size := held + held/arenaSlack + minSpare
	ent := make([]int32, 0, size)
	var sup []int32
	if s == outs {
		sup = make([]int32, 0, size)
	}
	put := func(id int32, region int) {
		r := &c.comps[id].sp[s]
		lo, hi := r.at, r.at+r.n
		r.at = int32(len(ent))
		ent = append(ent, a.ent[lo:hi]...)
		ent = ent[:int(r.at)+region]
		if s == outs {
			sup = append(sup, a.sup[lo:hi]...)
			sup = sup[:len(ent)]
		}
	}
	for id := range int32(len(c.comps)) {
		switch region := c.comps[id].region(s); {
		case region == 0:
			c.comps[id].sp[s].at = 0 // within any arena
		case id != last:
			put(id, region)
		}
	}
	if last >= 0 {
		put(last, want)
	}
	a.ent, a.sup, a.dead = ent, sup, 0
}

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
			if c.comps[a].size > 1 {
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
			d.Touched = append(d.Touched, c.first(p))
		}
		c.lossArea(c.compOf[u], c.compOf[v], a)
		return
	}
	if c.decSupport(a, b, 1) > 0 {
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
	fdeg, bdeg := c.deg(a, outs), c.deg(b, ins)
	found := false
search:
	for len(fwd) > 0 && len(bwd) > 0 {
		next = next[:0]
		if fdeg <= bdeg {
			fdeg = 0
			for _, x := range fwd {
				for _, t := range c.row(x, outs) {
					if mark[t] == bs {
						found = true
						break search
					}
					if mark[t] != fs {
						mark[t] = fs
						next = append(next, t)
						fdeg += c.deg(t, outs)
					}
				}
			}
			fwd, next = next, fwd
		} else {
			bdeg = 0
			for _, x := range bwd {
				for _, f := range c.row(x, ins) {
					if mark[f] == fs {
						found = true
						break search
					}
					if mark[f] != bs {
						mark[f] = bs
						next = append(next, f)
						bdeg += c.deg(f, ins)
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
	i, ok := slices.BinarySearch(c.row(a, outs), b)
	if ok {
		c.sup(a)[i] += n
		return
	}
	c.insertAt(a, outs, i, b, n)
	c.insertIn(b, a)
}

// insertIn adds a to b's predecessor row.
func (c *Cond) insertIn(b, a int32) {
	j, _ := slices.BinarySearch(c.row(b, ins), a)
	c.insertAt(b, ins, j, a, 0)
}

// insertOut adds b, with support n, to a's successor row alone.
func (c *Cond) insertOut(a, b, n int32) {
	i, _ := slices.BinarySearch(c.row(a, outs), b)
	c.insertAt(a, outs, i, b, n)
}

// decSupport removes n member edges from the condensation edge (a,b),
// dropping the edge at zero, and returns the support left.
func (c *Cond) decSupport(a, b, n int32) int32 {
	i, _ := slices.BinarySearch(c.row(a, outs), b)
	sup := c.sup(a)
	sup[i] -= n
	left := sup[i]
	if left == 0 {
		c.dropArc(a, b, i)
	}
	return left
}

// dropArc deletes the condensation edge (a,b), at index i of a's out list.
func (c *Cond) dropArc(a, b int32, i int) {
	c.removeAt(a, outs, i)
	c.removeIn(b, a)
}

// removeIn deletes a from b's predecessor row.
func (c *Cond) removeIn(b, a int32) {
	j, _ := slices.BinarySearch(c.row(b, ins), a)
	c.removeAt(b, ins, j)
}

// pathSet returns the components on some condensation path src ⇝ dst,
// both endpoints included, given that one exists. It is a memoized DFS
// that never expands the far endpoint, run from whichever end has the
// smaller degree (an unrestricted search out of a hub would visit its
// whole cone). The result aliases scratch valid until the next call.
func (c *Cond) pathSet(src, dst int32) []int32 {
	forward := c.deg(src, outs) <= c.deg(dst, ins)
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
		adj := c.row(f.c, outs)
		if !forward {
			adj = c.row(f.c, ins)
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
		if cost := int(c.comps[x].size) + c.deg(x, outs) + c.deg(x, ins); cost > hostCost {
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
		v := c.first(x)
		for k := c.comps[x].size; k > 0; k-- {
			c.compOf[v] = host
			c.delta.Moved = append(c.delta.Moved, v)
			v = c.next[v]
		}
		c.splice(host, x)
		// x's rows are read as they stand: no edit below writes to them
		// (package doc, "Storage").
		sup := c.sup(x)
		for i, t := range c.row(x, outs) {
			if mark[t] == ms {
				continue // now internal to the merged component
			}
			c.removeIn(t, x)
			c.addSupport(host, t, sup[i])
		}
		for _, f := range c.row(x, ins) {
			if mark[f] == ms {
				continue
			}
			j, _ := slices.BinarySearch(c.row(f, outs), x)
			s := c.sup(f)[j]
			c.removeAt(f, outs, j)
			c.addSupport(f, host, s)
		}
		c.kill(x)
	}
	// The host's own edges to absorbed components became internal.
	for side := range c.ar {
		row, sup := c.row(host, side), []int32(nil)
		if side == outs {
			sup = c.sup(host)
		}
		k := 0
		for i, t := range row {
			if mark[t] != ms {
				row[k] = t
				if sup != nil {
					sup[k] = sup[i]
				}
				k++
			}
		}
		c.comps[host].sp[side].n = int32(k)
		c.dropped(host, side, len(row)-k)
	}
	c.comps[host].cyclic = true
}

// kill marks x dead; its rows' regions are dead with it.
func (c *Cond) kill(x int32) {
	for side := range c.ar {
		c.ar[side].dead += c.comps[x].region(side)
	}
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
	ids, left := c.peel(a, u, v, part, fromU)
	if ids == nil {
		c.delta.Resplits++
		ids, left = c.decompose(a)
	}

	ms := c.cstamps(1)
	for _, id := range ids {
		c.cmark[id] = ms
	}
	// Hand the nodes that left, already labeled in compOf, to their parts.
	for _, x := range left {
		if id := c.compOf[x]; id != a {
			c.unlink(a, x)
			c.push(id, x)
			c.delta.Moved = append(c.delta.Moved, x)
		}
	}

	// Carve each new part's rows from its members' edges. An edge to or from
	// outside the old component moves its support from a to the part; an
	// edge that was internal to a now crosses parts. Edges between two new
	// parts are entered in the tail's successor row and the head's
	// predecessor row, each from its own scan.
	for _, id := range ids {
		if id == a {
			continue
		}
		vals, sups := c.adjacent(id, true)
		c.carve(id, outs, vals, sups)
		for i, cw := range vals {
			if c.cmark[cw] != ms {
				c.decSupport(a, cw, sups[i])
			}
			if c.cmark[cw] != ms || cw == a {
				c.insertIn(cw, id)
			}
		}
		vals, sups = c.adjacent(id, false)
		c.carve(id, ins, vals, nil)
		for i, cw := range vals {
			if c.cmark[cw] != ms {
				c.decSupport(cw, a, sups[i])
			}
			if c.cmark[cw] != ms || cw == a {
				c.insertOut(cw, id, sups[i])
			}
		}
	}
	for _, id := range ids {
		f := c.first(id)
		c.comps[id].cyclic = c.comps[id].size > 1 || c.g.HasEdge(f, f)
	}
	return ids
}

// adjacent lists the components other than id that id's members have edges
// to (forward) or from, ascending, with the member edges behind each. Both
// lists alias scratch valid until the next call.
func (c *Cond) adjacent(id int32, forward bool) (comps, edges []int32) {
	all := c.bufC[:0]
	x := c.first(id)
	for k := c.comps[id].size; k > 0; k-- {
		nbrs := c.g.Successors(x)
		if !forward {
			nbrs = c.g.Predecessors(x)
		}
		for _, w := range nbrs {
			if cw := c.compOf[w]; cw != id {
				all = append(all, cw)
			}
		}
		x = c.next[x]
	}
	slices.Sort(all)
	edges = c.bufA[:0]
	k := 0
	for i, cw := range all {
		if i > 0 && cw == all[k-1] {
			edges[k-1]++
			continue
		}
		all[k] = cw
		edges = append(edges, 1)
		k++
	}
	c.bufC, c.bufA = all[:0], edges[:0]
	return all[:k], edges
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
// which the rest keeps, and the peeled nodes. It gives up (nil), leaving
// compOf as it found it, once its probes have visited as many nodes as a
// has or the peeled nodes outnumber the rest.
func (c *Cond) peel(a int32, u, v graph.Node, part []graph.Node, fromU bool) ([]int32, []graph.Node) {
	size := int(c.comps[a].size)
	if 2*len(part) > size {
		return nil, nil
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
		return nil, nil
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
	return ids, peeled
}

// decompose is the general path of split: a Tarjan pass over all of a's
// members. The members of every part but the largest are labeled with a
// fresh id in compOf. It returns the parts' ids and a's members.
func (c *Cond) decompose(a int32) ([]int32, []graph.Node) {
	members := c.members(c.nbufC[:0], a)
	c.nbufC = members[:0]
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
	return ids, members
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
		c.delta.Touched = append(c.delta.Touched, c.first(x))
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
			adj := c.row(queue[i], outs)
			if !forward {
				adj = c.row(queue[i], ins)
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
		adj := c.row(dst[i], outs)
		if !forward {
			adj = c.row(dst[i], ins)
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
