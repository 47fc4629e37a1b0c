package graph

import "slices"

// This file builds a CSR from another by replacing a batch of rows: how an
// evolving quotient, whose rows are rebuilt rather than edited, gets its
// next snapshot. The new CSR copies the previous one's two row tables (8
// bytes per node a side) and appends only the replaced successor rows and
// the rebuilt predecessor rows to the arena the two share; every other row
// keeps its entries where they are. Readers cannot tell how a CSR was built.
//
// Appending in place is allowed only to the CSR that ends at its arena's
// tip, claimed by one CAS: a second patch of the same CSR, or a patch of an
// older one, packs a fresh arena instead, so no entry below the end of a
// built CSR is ever written. A Graph writes the arenas it freezes into by
// the same rule (graph.go). Replaced rows leave dead entries behind. A
// side is packed afresh — rows in node order, no gaps, 1/arenaSlack of its
// live size spare — when its dead entries would pass 1/arenaSlack of its
// live ones or its arena is full, so an arena stays within a constant
// factor of the live adjacency and each written entry costs amortised O(1).

// arenaSlack sets both compaction thresholds above: a side is packed when
// its dead entries pass live/arenaSlack, and a packed arena has
// live/arenaSlack + minSpare entries spare.
const (
	arenaSlack = 4
	minSpare   = 16
)

// Patcher carries the scratch of Patch between calls. The zero value is
// ready; a Patcher is owned by one goroutine at a time.
type Patcher struct {
	replaced StampSet // rows whose successor list is given anew
	touched  StampSet // rows whose predecessor list must be rebuilt
	slot     []int32
	tids     []Node
	addOff   []int32
	cursor   []int32
	adds     []Node
	inOff    []int32
	inFlat   []Node
}

// StampSet is a set over [0, n) emptied in O(1) by moving to the next
// stamp — the scratch a writer keeps across epochs instead of allocating a
// fresh mark array for each. The zero value is an empty set over nothing.
type StampSet struct {
	mark []uint32
	cur  uint32
}

// Reset empties the set and sizes it for members below n.
func (s *StampSet) Reset(n int) {
	if len(s.mark) < n {
		s.mark = append(s.mark, make([]uint32, n-len(s.mark))...)
	}
	s.cur++
	if s.cur == 0 {
		clear(s.mark)
		s.cur = 1
	}
}

// Has reports whether i is in the set.
func (s *StampSet) Has(i Node) bool { return s.mark[i] == s.cur }

// Add inserts i and reports whether it was absent.
func (s *StampSet) Add(i Node) bool {
	if s.mark[i] == s.cur {
		return false
	}
	s.mark[i] = s.cur
	return true
}

// Patch returns the CSR over n nodes that equals prev except for the rows
// named by ids, ascending and without duplicates: row ids[k] has the
// successors row(k), sorted and duplicate-free like every CSR row, and the
// label label(k). A nil label keeps prev's label array (n must then equal
// prev's node count). With n above prev's node count the new rows are
// empty unless listed; with n below it the rows from n up are dropped, and
// no kept row may still name one of them. The predecessor side is rebuilt
// for exactly the nodes whose predecessor set changed — the symmetric
// difference of each replaced row's old and new contents — and kept for the
// rest. prev is only read, and stays valid: the result shares its arenas
// where it can (see above) but never the patcher's scratch, and row and
// label are not retained.
func (p *Patcher) Patch(prev *CSR, n int, ids []Node, row func(k int) []Node, label func(k int) Label) *CSR {
	nPrev := prev.NumNodes()
	span := max(n, nPrev)
	p.replaced.Reset(span)
	p.touched.Reset(span)
	if len(p.slot) < span {
		p.slot = make([]int32, span)
	}
	p.tids = p.tids[:0]
	touch := func(w Node) {
		if int(w) < n && p.touched.Add(w) {
			p.tids = append(p.tids, w)
		}
	}
	for k, id := range ids {
		p.replaced.Add(id)
		var old []Node
		if int(id) < nPrev {
			old = prev.Successors(id)
		}
		nw := row(k)
		for i, j := 0, 0; i < len(old) || j < len(nw); {
			switch {
			case j == len(nw) || i < len(old) && old[i] < nw[j]:
				touch(old[i])
				i++
			case i == len(old) || nw[j] < old[i]:
				touch(nw[j])
				j++
			default:
				i++
				j++
			}
		}
	}
	for id := n; id < nPrev; id++ { // dropped rows lose every edge
		p.replaced.Add(Node(id))
		for _, w := range prev.Successors(Node(id)) {
			touch(w)
		}
	}
	slices.Sort(p.tids)
	for s, t := range p.tids {
		p.slot[t] = int32(s)
	}

	// A rebuilt predecessor row is the old one without the replaced
	// sources, merged with the replaced sources whose new rows name the
	// node; those are bucketed per node in ascending source order.
	nt := len(p.tids)
	p.addOff = append(p.addOff[:0], make([]int32, nt+1)...)
	for k := range ids {
		for _, w := range row(k) {
			if p.touched.Has(w) {
				p.addOff[p.slot[w]+1]++
			}
		}
	}
	for s := 0; s < nt; s++ {
		p.addOff[s+1] += p.addOff[s]
	}
	p.cursor = append(p.cursor[:0], p.addOff[:nt]...)
	p.adds = slices.Grow(p.adds[:0], int(p.addOff[nt]))[:p.addOff[nt]]
	for k, id := range ids {
		for _, w := range row(k) {
			if p.touched.Has(w) {
				s := p.slot[w]
				p.adds[p.cursor[s]] = id
				p.cursor[s]++
			}
		}
	}
	p.inOff, p.inFlat = p.inOff[:0], p.inFlat[:0]
	for s, t := range p.tids {
		p.inOff = append(p.inOff, int32(len(p.inFlat)))
		add := p.adds[p.addOff[s]:p.addOff[s+1]]
		if int(t) < nPrev {
			for _, u := range prev.Predecessors(t) {
				if p.replaced.Has(u) {
					continue
				}
				for len(add) > 0 && add[0] < u {
					p.inFlat = append(p.inFlat, add[0])
					add = add[1:]
				}
				p.inFlat = append(p.inFlat, u)
			}
		}
		p.inFlat = append(p.inFlat, add...)
	}
	p.inOff = append(p.inOff, int32(len(p.inFlat)))

	c := &CSR{labels: prev.labels, label: prev.label}
	if label != nil {
		c.label = cloneTo(prev.label, n)
		for k, id := range ids {
			c.label[id] = label(k)
		}
	}
	c.out, c.m = patchSide(&prev.out, prev.m, n, ids, row)
	c.in, _ = patchSide(&prev.in, prev.m, n, p.tids, func(k int) []Node {
		return p.inFlat[p.inOff[k]:p.inOff[k+1]]
	})
	return c
}

// patchSide returns prev, a side with m live entries, over n nodes with the
// rows ids[k] replaced by row(k), and its live entry count: in place when
// prev ends at its arena's tip and the arena has room without passing the
// dead share, packed into a fresh arena otherwise.
func patchSide(prev *side, m, n int, ids []Node, row func(k int) []Node) (side, int) {
	keep := min(n, len(prev.rows))
	live, need := m, 0
	for _, r := range prev.rows[keep:] {
		live -= int(r.hi - r.lo)
	}
	for k, id := range ids {
		if int(id) < keep {
			r := prev.rows[id]
			live -= int(r.hi - r.lo)
		}
		need += len(row(k))
	}
	live += need
	a, end := prev.ar, len(prev.adj)
	if end+need > len(a.buf) || arenaSlack*(end+need-live) > live ||
		!a.tip.CompareAndSwap(int32(end), int32(end+need)) {
		return pack(prev, live, n, ids, row), live
	}
	rows := cloneTo(prev.rows, n)
	pos := int32(end)
	for k, id := range ids {
		r := row(k)
		rows[id] = span{pos, pos + int32(len(r))}
		pos += int32(copy(a.buf[pos:], r))
	}
	return side{rows: rows, adj: a.buf[:pos:pos], ar: a}, live
}

// cloneTo returns the first n entries of s in a fresh slice, zero past s's
// end. A clone is not cleared before the copy, as make would clear it.
func cloneTo[E any](s []E, n int) []E {
	if n <= len(s) {
		return slices.Clone(s[:n])
	}
	c := make([]E, n)
	copy(c, s)
	return c
}

// pack writes prev over n nodes with the rows ids[k] replaced by row(k) —
// live entries in all — into a fresh arena, in node order with no gaps.
func pack(prev *side, live, n int, ids []Node, row func(k int) []Node) side {
	buf := make([]Node, live+live/arenaSlack+minSpare)
	rows := make([]span, n)
	pos := int32(0)
	for v, k := 0, 0; v < n; v++ {
		var r []Node
		switch {
		case k < len(ids) && int(ids[k]) == v:
			r = row(k)
			k++
		case v < len(prev.rows):
			r = prev.row(Node(v))
		}
		rows[v] = span{pos, pos + int32(len(r))}
		pos += int32(copy(buf[pos:], r))
	}
	a := &arena{buf: buf}
	a.tip.Store(pos)
	return side{rows: rows, adj: buf[:pos:pos], ar: a, compact: true}
}

// Equal reports whether c and d are the same snapshot: labels, and every
// successor and predecessor row. How either was built does not matter.
func (c *CSR) Equal(d *CSR) bool {
	if !slices.Equal(c.label, d.label) || c.m != d.m {
		return false
	}
	for v := range c.label {
		if !slices.Equal(c.Successors(Node(v)), d.Successors(Node(v))) ||
			!slices.Equal(c.Predecessors(Node(v)), d.Predecessors(Node(v))) {
			return false
		}
	}
	return true
}
