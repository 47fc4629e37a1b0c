package graph

import "slices"

// This file builds one epoch's CSR from the previous epoch's: a store that
// publishes a snapshot per batch group changes a handful of rows between
// two of them, so the new flat arrays are the old ones copied in runs with
// the changed rows spliced in — a few memmoves and one pass shifting the
// offsets — instead of 2·|V| per-row appends over the live adjacency
// lists. The result is a plain CSR; readers cannot tell how it was built.

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

	// ApplyUpdates' own scratch, which Patch leaves alone: the group's
	// updates sorted by edge, and the rows they change.
	ups     []Update
	srcs    []Node
	rowOff  []int32
	rowFlat []Node
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
// difference of each replaced row's old and new contents — and copied for
// the rest. prev is only read; the result shares nothing with the
// patcher's scratch, and row and label are not retained.
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
		c.label = make([]Label, n)
		copy(c.label, prev.label)
		for k, id := range ids {
			c.label[id] = label(k)
		}
	}
	c.outOff, c.outAdj = patchSide(prev.outOff, prev.outAdj, n, ids, row)
	c.inOff, c.inAdj = patchSide(prev.inOff, prev.inAdj, n, p.tids, func(k int) []Node {
		return p.inFlat[p.inOff[k]:p.inOff[k+1]]
	})
	return c
}

// patchSide splices the replacement rows into one side's flat arrays:
// unchanged spans are copied whole and their offsets shifted by the bytes
// gained or lost before them.
func patchSide(prevOff []int32, prevAdj []Node, n int, ids []Node, row func(k int) []Node) ([]int32, []Node) {
	keep := min(n, len(prevOff)-1)
	m := int(prevOff[keep])
	for k, id := range ids {
		if int(id) < keep {
			m -= int(prevOff[id+1] - prevOff[id])
		}
		m += len(row(k))
	}
	off := make([]int32, n+1)
	adj := make([]Node, m)
	pos, next := int32(0), 0
	unchanged := func(end int) {
		if e := min(end, keep); next < e {
			lo, hi := prevOff[next], prevOff[e]
			copy(adj[pos:], prevAdj[lo:hi])
			if d := pos - lo; d == 0 {
				copy(off[next:e], prevOff[next:e])
			} else {
				for v := next; v < e; v++ {
					off[v] = prevOff[v] + d
				}
			}
			pos += hi - lo
			next = e
		}
		for ; next < end; next++ {
			off[next] = pos
		}
	}
	for k, id := range ids {
		unchanged(int(id))
		off[id] = pos
		pos += int32(copy(adj[pos:], row(k)))
		next = int(id) + 1
	}
	unchanged(n)
	off[n] = pos
	return off, adj
}

// FreezePatch returns what Freeze would, built by patching prev — the
// Freeze (or FreezePatch) of an earlier state of g. touched lists,
// ascending and without duplicates, every node whose successor list has
// changed since.
func (g *Graph) FreezePatch(p *Patcher, prev *CSR, touched []Node) *CSR {
	return p.Patch(prev, len(g.label), touched, func(k int) []Node { return g.out[touched[k]] }, nil)
}

// ApplyUpdates returns what Freeze would give after a graph equal to prev
// applied the batches in order (Graph.Apply, batch by batch), built by
// patching prev, together with the nodes whose successor rows changed,
// ascending and valid until the next call. It is FreezePatch for a reader
// that holds only the snapshot and the raw updates: the last update of an
// edge decides whether the edge is there, so no mutable graph is needed.
// When nothing changes it returns prev itself. Every node id must lie in
// [0, prev.NumNodes()).
func (p *Patcher) ApplyUpdates(prev *CSR, batches [][]Update) (*CSR, []Node) {
	p.ups = p.ups[:0]
	for _, b := range batches {
		p.ups = append(p.ups, b...)
	}
	// Stable, so each edge's updates keep their order and the last one wins.
	slices.SortStableFunc(p.ups, func(a, b Update) int {
		if a.From != b.From {
			return int(a.From - b.From)
		}
		return int(a.To - b.To)
	})
	p.srcs, p.rowOff, p.rowFlat = p.srcs[:0], p.rowOff[:0], p.rowFlat[:0]
	for i := 0; i < len(p.ups); {
		u := p.ups[i].From
		old := prev.Successors(u)
		start, k, changed := len(p.rowFlat), 0, false
		for ; i < len(p.ups) && p.ups[i].From == u; i++ {
			to := p.ups[i].To
			if i+1 < len(p.ups) && p.ups[i+1].From == u && p.ups[i+1].To == to {
				continue // a later update of the same edge decides it
			}
			for k < len(old) && old[k] < to {
				p.rowFlat = append(p.rowFlat, old[k])
				k++
			}
			has := k < len(old) && old[k] == to
			if has {
				k++
			}
			if p.ups[i].Insert {
				p.rowFlat = append(p.rowFlat, to)
			}
			changed = changed || has != p.ups[i].Insert
		}
		if !changed {
			p.rowFlat = p.rowFlat[:start]
			continue
		}
		p.rowFlat = append(p.rowFlat, old[k:]...)
		p.srcs = append(p.srcs, u)
		p.rowOff = append(p.rowOff, int32(start))
	}
	if len(p.srcs) == 0 {
		return prev, nil
	}
	p.rowOff = append(p.rowOff, int32(len(p.rowFlat)))
	c := p.Patch(prev, prev.NumNodes(), p.srcs, func(k int) []Node { return p.rowFlat[p.rowOff[k]:p.rowOff[k+1]] }, nil)
	return c, p.srcs
}

// Equal reports whether c and d are the same snapshot array for array:
// labels, both offset tables and both adjacency arrays.
func (c *CSR) Equal(d *CSR) bool {
	return slices.Equal(c.label, d.label) &&
		slices.Equal(c.outOff, d.outOff) && slices.Equal(c.outAdj, d.outAdj) &&
		slices.Equal(c.inOff, d.inOff) && slices.Equal(c.inAdj, d.inAdj)
}
