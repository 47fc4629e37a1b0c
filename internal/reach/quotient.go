package reach

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Kernel computes the reachability-equivalence quotient of a DAG whose
// nodes carry cyclic flags, in one transitive-reduction pass (package doc,
// "One reduction pass"). Compress runs it over the condensation of G; the
// incremental maintainer runs it over its block quotient H.
//
// The zero value is ready to use. A Kernel keeps its scratch between calls,
// sized by the largest input it has seen (Cap), so that a caller that
// quotients graphs of a steady size allocates only the result. It is not
// safe for concurrent use.
type Kernel struct {
	order []int32 // topological order, sources first: position -> node
	pos   []int32 // node -> position (in-degree while Kahn runs)

	// The reduction pass, indexed by position. A node's strict descendant
	// set lives in a slot of words uint64s over positions; it is released,
	// cleared, once every parent has read it. Slots lie in chunks of
	// chunkSlots, each chunkSlots*chunkWords long, so the arena grows
	// without copying what it holds; slot s is in chunk s>>chunkShift.
	parents    []int32 // parents that have not yet run
	slot       []int32 // slot of the descendant set, -1 when empty
	hi         []int32 // one past the last word the descendant set occupies
	chunks     [][]uint64
	chunkWords int   // the words a slot of every chunk has room for
	slots      int32 // slots handed out this pass
	free       []int32
	words      int
	kids       []int32 // one node's children, as positions

	// The reduced rows, as ascending positions: the out-row of position p is
	// red[redLo[p]:redHi[p]], its in-row in[inOff[p]:inOff[p+1]].
	red          []int32
	redLo, redHi []int32
	inOff, in    []int32

	classOf []int32 // node -> class
	rep     []int32 // class -> position of its first member
	table   []int32 // open addressing over (out-row, in-row): class+1, 0 when empty
}

// chunkShift sets the slots per arena chunk, a power of two so that a set
// is found by shift and mask.
const (
	chunkShift = 6
	chunkSlots = 1 << chunkShift
)

// Cap returns the number of nodes the kernel's scratch is sized for.
func (k *Kernel) Cap() int { return cap(k.pos) }

// Footprint returns the bytes k's scratch holds, read off its capacities.
func (k *Kernel) Footprint() int {
	n := 0
	for _, c := range k.chunks {
		n += 8 * cap(c)
	}
	for _, s := range [][]int32{
		k.order, k.pos, k.parents, k.slot, k.hi, k.free, k.kids,
		k.red, k.redLo, k.redHi, k.inOff, k.in, k.classOf, k.rep, k.table,
	} {
		n += 4 * cap(s)
	}
	return n
}

// Quotient partitions the nodes of a DAG into reachability classes and
// returns the class of each node together with the quotient's rows and
// cyclic flags.
//
// The DAG's rows are flat: v's successors are dagAdj[dagOff[v]:dagOff[v+1]],
// sorted and free of duplicates and self-loops, and dagOff has one entry
// more than the DAG has nodes; cyclic[v] says whether v stands for a cyclic
// component, which is always a class of its own. Both arrays are only read,
// so a caller passes the rows it holds — a condensation's OutRows, incRCM's
// row buffer — as they stand. The result's rows are flat too: class c's
// successors are adj[off[c]:off[c+1]], ascending, with c itself when c is
// cyclic; they are transitively reduced, so they are Gr's edge lists as they
// stand.
//
// Classes are numbered by the position of their first member in the
// kernel's topological order of the DAG, so the quotient is topologically
// numbered: every edge between two classes goes from the smaller id to the
// larger. Proof: let a quotient edge run from class A to class B. Members of
// A share their descendants and members of B their ancestors, so every
// member of A is a strict ancestor of every member of B; in particular the
// first member of A is one of the first member of B, and precedes it in a
// topological order: first(A) < first(B).
//
// classOf is the kernel's own and valid until its next call; off, adj and
// classCyclic belong to the caller.
func (k *Kernel) Quotient(dagOff, dagAdj []int32, cyclic []bool) (classOf, off []int32, adj []graph.Node, classCyclic []bool) {
	n := len(dagOff) - 1
	k.reduce(dagOff, dagAdj)
	k.transpose(n)
	k.group(n, cyclic)

	// A class row is its first member's reduced row over classes: every
	// member has that row, and an edge the merge made redundant was
	// redundant in the DAG already (package doc), so the rows stay reduced
	// and need only the duplicates removed — two kept children may share a
	// class.
	classes := len(k.rep)
	total := 0
	for _, p := range k.rep {
		total += len(k.outRow(p)) + 1
	}
	adj = make([]graph.Node, 0, total)
	off = make([]int32, classes+1)
	classCyclic = make([]bool, classes)
	for c, p := range k.rep {
		start := len(adj)
		for _, q := range k.outRow(p) {
			adj = append(adj, k.classOf[k.order[q]])
		}
		if cyclic[k.order[p]] {
			classCyclic[c] = true
			adj = append(adj, graph.Node(c))
		}
		row := adj[start:]
		slices.Sort(row)
		adj = adj[:start+len(slices.Compact(row))]
		off[c+1] = int32(len(adj))
	}
	return k.classOf[:n], off, adj, classCyclic
}

// reduce orders the DAG whose row v is adj[off[v]:off[v+1]] topologically
// and computes its transitive reduction: afterwards order/pos are set and
// red/redLo/redHi hold every position's reduced out-row.
func (k *Kernel) reduce(off, adj []int32) {
	n := len(off) - 1
	k.pos = resize(k.pos, n)
	k.order = resize(k.order, n)
	k.parents = resize(k.parents, n)
	k.slot = resize(k.slot, n)
	k.hi = resize(k.hi, n)
	k.redLo = resize(k.redLo, n)
	k.redHi = resize(k.redHi, n)
	k.red = k.red[:0]
	if n == 0 {
		return
	}

	// Kahn, with order as its queue. pos holds in-degrees until a node is
	// queued; no parent decrements it after that.
	indeg := k.pos
	clear(indeg)
	for _, b := range adj[off[0]:off[n]] {
		indeg[b]++
	}
	order := k.order[:0]
	for v := range n {
		if indeg[v] == 0 {
			order = append(order, int32(v))
		}
	}
	for i := 0; i < len(order); i++ {
		v := order[i]
		for _, b := range adj[off[v]:off[v+1]] {
			if indeg[b]--; indeg[b] == 0 {
				order = append(order, b)
			}
		}
	}
	if len(order) != n {
		panic(fmt.Sprintf("reach: quotient input has a cycle (%d of %d ordered)", len(order), n))
	}
	pos := k.pos
	for p, v := range order {
		pos[v] = int32(p)
	}
	parents := k.parents
	clear(parents)
	for _, b := range adj[off[0]:off[n]] {
		parents[pos[b]]++
	}

	// Every slot is all zero (a set is cleared when released, and all are
	// released by the end of a pass), so the chunks can be carved anew for
	// this input's word count while they have room for it.
	k.words = (n + 63) / 64
	if k.words > k.chunkWords {
		k.chunks, k.chunkWords = nil, k.words
	}
	k.slots, k.free = 0, k.free[:0]

	// Children first. A node's children, by ascending position, are its
	// candidate reduced row: a child is redundant iff an earlier child
	// reaches it, and it suffices to test against the children kept so far
	// (whatever reaches a redundant child reaches what it reaches). desc of
	// the node is the kept children with their sets; every bit of it lies
	// above the node's own position.
	red := k.red
	for p := int32(n - 1); p >= 0; p-- {
		kids := k.kids[:0]
		v := order[p]
		for _, b := range adj[off[v]:off[v+1]] {
			kids = append(kids, pos[b])
		}
		slices.Sort(kids)
		k.kids = kids
		k.redLo[p] = int32(len(red))
		s, hi := int32(-1), int32(0)
		var set []uint64
		for _, q := range kids {
			if set != nil && set[q>>6]&(1<<(q&63)) != 0 {
				continue
			}
			red = append(red, q)
			if set == nil {
				s = k.alloc()
				set = k.set(s)
			}
			set[q>>6] |= 1 << (q & 63)
			hi = max(hi, q>>6+1)
			if cs := k.slot[q]; cs >= 0 {
				child := k.set(cs)
				for i := (q + 1) >> 6; i < k.hi[q]; i++ {
					set[i] |= child[i]
				}
				hi = max(hi, k.hi[q])
			}
		}
		k.redHi[p] = int32(len(red))
		k.slot[p], k.hi[p] = s, hi
		for _, q := range kids {
			if parents[q]--; parents[q] == 0 {
				k.release(q)
			}
		}
		if parents[p] == 0 {
			k.release(p)
		}
	}
	k.red = red
}

// alloc returns a free, all-zero arena slot.
func (k *Kernel) alloc() int32 {
	if n := len(k.free); n > 0 {
		s := k.free[n-1]
		k.free = k.free[:n-1]
		return s
	}
	s := k.slots
	if int(s>>chunkShift) == len(k.chunks) {
		k.chunks = append(k.chunks, make([]uint64, chunkSlots*k.chunkWords))
	}
	k.slots++
	return s
}

// set returns the words of slot s.
func (k *Kernel) set(s int32) []uint64 {
	at := int(s&(chunkSlots-1)) * k.words
	return k.chunks[s>>chunkShift][at : at+k.words]
}

// release clears the descendant set of position p and frees its slot.
func (k *Kernel) release(p int32) {
	s := k.slot[p]
	if s < 0 {
		return
	}
	clear(k.set(s)[(p+1)>>6 : k.hi[p]])
	k.free = append(k.free, s)
	k.slot[p] = -1
}

// transpose fills the reduced in-rows from the reduced out-rows; visiting
// parents by ascending position leaves every in-row sorted.
func (k *Kernel) transpose(n int) {
	k.inOff = resize(k.inOff, n+1)
	clear(k.inOff)
	for _, q := range k.red {
		k.inOff[q+1]++
	}
	for p := range n {
		k.inOff[p+1] += k.inOff[p]
	}
	k.in = resize(k.in, len(k.red))
	next := k.parents // all zero after the reduction pass
	for p := range int32(n) {
		for _, q := range k.outRow(p) {
			k.in[k.inOff[q]+next[q]] = p
			next[q]++
		}
	}
}

// group numbers the classes in topological order (Quotient): walking the
// positions, a cyclic node opens a class of its own, an acyclic one joins
// the class of equal (reduced out-row, reduced in-row), found by hash and
// confirmed exactly, or opens it.
func (k *Kernel) group(n int, cyclic []bool) {
	k.classOf = resize(k.classOf, n)
	size := 1
	for size < 2*n {
		size <<= 1
	}
	k.table = resize(k.table, size)
	clear(k.table)
	mask := uint64(size - 1)
	k.rep = k.rep[:0]
	for p, v := range k.order[:n] {
		p := int32(p)
		if cyclic[v] {
			k.classOf[v] = int32(len(k.rep))
			k.rep = append(k.rep, p)
			continue
		}
		out, in := k.outRow(p), k.inRow(p)
		for i := hashRows(out, in) & mask; ; i = (i + 1) & mask {
			e := k.table[i]
			if e == 0 {
				k.table[i] = int32(len(k.rep)) + 1
				k.classOf[v] = int32(len(k.rep))
				k.rep = append(k.rep, p)
				break
			}
			if r := k.rep[e-1]; slices.Equal(out, k.outRow(r)) && slices.Equal(in, k.inRow(r)) {
				k.classOf[v] = e - 1
				break
			}
		}
	}
}

func (k *Kernel) outRow(p int32) []int32 { return k.red[k.redLo[p]:k.redHi[p]] }
func (k *Kernel) inRow(p int32) []int32  { return k.in[k.inOff[p]:k.inOff[p+1]] }

// hashRows mixes a node's two reduced rows into one word; the length of the
// first keeps the boundary between them significant.
func hashRows(out, in []int32) uint64 {
	h := uint64(len(out))*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, q := range out {
		h = (h ^ uint64(q)) * 0xff51afd7ed558ccd
	}
	for _, q := range in {
		h = (h ^ uint64(q)) * 0xc4ceb9fe1a85ec53
	}
	return h ^ h>>29
}

// resize returns s with length n, reallocating only when it is too small.
// The contents are not cleared.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
